package pfs

import (
	"slices"
	"sort"
)

// lockTable tracks byte-range write-token ownership on a shared file.  It
// stores a sorted list of disjoint owned ranges (owner = node id).  The
// interesting quantity for cost modeling is how many *ownership changes* a
// write causes: each contiguous run of units that must be (re)acquired is
// one lock RPC, and stealing a token held by another node costs a revoke.
//
// Once the table fragments past fragmentedCap segments, the file has
// reached the fully-interleaved steady state: essentially every acquire
// from a strided writer steals from a neighbour.  From then on acquires
// are charged the steal cost (2 RPCs) without tracking exact ownership,
// keeping the model O(1) at any scale.
type lockTable struct {
	segs      []lockSeg
	saturated bool
}

// fragmentedCap bounds exact ownership tracking.
const fragmentedCap = 1 << 14

type lockSeg struct {
	start, end int64 // unit numbers, half-open
	owner      int
}

// acquire makes node the owner of units [lo, hi) and returns the number of
// lock RPCs required: one per maximal run of units not already owned by
// node, plus one extra per run stolen from a different owner (revoke +
// grant).
func (t *lockTable) acquire(lo, hi int64, node int) (rpcs int) {
	if hi <= lo {
		return 0
	}
	if t.saturated {
		return 2
	}
	if len(t.segs) >= fragmentedCap {
		t.saturated = true
		t.segs = nil
		return 2
	}
	rpcs = t.runs(lo, hi, node)
	t.setOwner(lo, hi, node)
	return rpcs
}

// runs counts the lock RPCs acquire charges for [lo, hi): one per maximal
// run of units not owned by node, two if the run is held by another node.
func (t *lockTable) runs(lo, hi int64, node int) (rpcs int) {
	cur := lo
	i := t.firstEndingAfter(lo)
	inForeign := false
	inUnowned := false
	for cur < hi {
		if i < len(t.segs) && t.segs[i].start <= cur {
			s := t.segs[i]
			end := min64(s.end, hi)
			if s.owner == node {
				inForeign, inUnowned = false, false
			} else {
				if !inForeign {
					rpcs += 2 // revoke + grant
					inForeign, inUnowned = true, false
				}
			}
			cur = end
			if s.end <= hi {
				i++
			}
		} else {
			// Unowned gap up to the next segment or hi.
			end := hi
			if i < len(t.segs) && t.segs[i].start < hi {
				end = t.segs[i].start
			}
			if !inUnowned {
				rpcs++ // simple grant
				inUnowned, inForeign = true, false
			}
			cur = end
		}
	}
	return rpcs
}

// firstEndingAfter returns the index of the first segment ending after
// unit, or len(t.segs).
func (t *lockTable) firstEndingAfter(unit int64) int {
	return sort.Search(len(t.segs), func(i int) bool { return t.segs[i].end > unit })
}

// setOwner makes node the owner of [lo, hi) in place.  The table is
// canonical (no two touching segments share an owner), so only the
// overlapped segments [i, j) and their two neighbours change: they are
// replaced by at most three segments — the left fringe of segs[i], the
// new range, the right fringe of segs[j-1] — and the new range absorbs a
// fringe or a touching neighbour that node already owns.
func (t *lockTable) setOwner(lo, hi int64, node int) {
	segs := t.segs
	i := t.firstEndingAfter(lo)
	j := i + sort.Search(len(segs)-i, func(k int) bool { return segs[i+k].start >= hi })
	// buf holds the left fringe, the new range and the right fringe;
	// buf[from:to] replaces segs[a:b].
	buf := [3]lockSeg{1: {lo, hi, node}}
	mid := &buf[1]
	from, to := 1, 2
	a, b := i, j
	if i < j && segs[i].start < lo {
		if segs[i].owner == node {
			mid.start = segs[i].start
		} else {
			buf[0], from = lockSeg{segs[i].start, lo, segs[i].owner}, 0
		}
	} else if i > 0 && segs[i-1].end == lo && segs[i-1].owner == node {
		a, mid.start = i-1, segs[i-1].start
	}
	if i < j && segs[j-1].end > hi {
		if segs[j-1].owner == node {
			mid.end = segs[j-1].end
		} else {
			buf[2], to = lockSeg{hi, segs[j-1].end, segs[j-1].owner}, 3
		}
	} else if j < len(segs) && segs[j].start == hi && segs[j].owner == node {
		b, mid.end = j+1, segs[j].end
	}
	t.segs = slices.Replace(segs, a, b, buf[from:to]...)
}

// ownerAt returns the owner of the unit, or -1 if unowned.
func (t *lockTable) ownerAt(unit int64) int {
	for _, s := range t.segs {
		if unit >= s.start && unit < s.end {
			return s.owner
		}
	}
	return -1
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
