package pfs

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLockTableFirstAcquire(t *testing.T) {
	var lt lockTable
	if got := lt.acquire(0, 10, 1); got != 1 {
		t.Fatalf("fresh acquire rpcs = %d, want 1", got)
	}
	// Re-acquire of an owned range is free.
	if got := lt.acquire(0, 10, 1); got != 0 {
		t.Fatalf("re-acquire rpcs = %d, want 0", got)
	}
}

func TestLockTableSteal(t *testing.T) {
	var lt lockTable
	lt.acquire(0, 10, 1)
	// Node 2 steals the middle: revoke+grant = 2 RPCs.
	if got := lt.acquire(4, 6, 2); got != 2 {
		t.Fatalf("steal rpcs = %d, want 2", got)
	}
	if lt.ownerAt(5) != 2 || lt.ownerAt(3) != 1 || lt.ownerAt(7) != 1 {
		t.Fatalf("ownership wrong: %+v", lt.segs)
	}
}

func TestLockTableMixedRuns(t *testing.T) {
	var lt lockTable
	lt.acquire(0, 4, 1)  // [0,4) owned by 1
	lt.acquire(8, 12, 2) // [8,12) owned by 2
	// Node 3 takes [2, 10): runs are [2,4) foreign, [4,8) unowned,
	// [8,10) foreign -> 2 + 1 + 2 = 5 RPCs.
	if got := lt.acquire(2, 10, 3); got != 5 {
		t.Fatalf("mixed rpcs = %d, want 5", got)
	}
}

func TestLockTablePingPong(t *testing.T) {
	// Two nodes alternately writing the same unit: every write after the
	// first costs a steal — the paper's N-1 serialization mechanism.
	var lt lockTable
	total := 0
	for i := 0; i < 10; i++ {
		total += lt.acquire(0, 1, i%2)
	}
	if total != 1+9*2 {
		t.Fatalf("ping-pong rpcs = %d, want 19", total)
	}
}

// Property: the lock table matches a brute-force per-unit ownership map,
// and RPC counts equal the number of maximal non-owned runs (+1 for each
// stolen run).
func TestLockTableMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lt lockTable
		oracle := make([]int, 64)
		for i := range oracle {
			oracle[i] = -1
		}
		for k := 0; k < 50; k++ {
			lo := int64(rng.Intn(60))
			hi := lo + 1 + int64(rng.Intn(int(64-lo)))
			node := rng.Intn(4)
			// Oracle RPC count.
			want := 0
			run := 0 // 0 none, 1 unowned, 2 foreign
			for u := lo; u < hi; u++ {
				switch {
				case oracle[u] == node:
					run = 0
				case oracle[u] == -1:
					if run != 1 {
						want++
						run = 1
					}
				default:
					if run != 2 {
						want += 2
						run = 2
					}
				}
				oracle[u] = node
			}
			if got := lt.acquire(lo, hi, node); got != want {
				return false
			}
			for u := range oracle {
				if lt.ownerAt(int64(u)) != oracle[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRunBoundaries(t *testing.T) {
	// A foreign run followed by an unowned run must count separately.
	var lt lockTable
	lt.acquire(0, 2, 1)
	if got := lt.acquire(0, 4, 2); got != 3 { // steal [0,2) + grant [2,4)
		t.Fatalf("rpcs = %d, want 3", got)
	}
}

// rebuildOwner is the table update setOwner replaced: it copies the whole
// segment list, merging the new range with touching segments of the same
// owner.  It is the reference for TestSpliceMatchesRebuild.
func rebuildOwner(segs []lockSeg, lo, hi int64, node int) []lockSeg {
	var out []lockSeg
	inserted := false
	insert := func() {
		if inserted {
			return
		}
		inserted = true
		if n := len(out); n > 0 && out[n-1].owner == node && out[n-1].end == lo {
			out[n-1].end = hi
		} else {
			out = append(out, lockSeg{lo, hi, node})
		}
	}
	for _, s := range segs {
		if s.end <= lo {
			out = append(out, s)
			continue
		}
		if s.start >= hi {
			insert()
			if n := len(out); n > 0 && out[n-1].owner == s.owner && out[n-1].end == s.start {
				out[n-1].end = s.end
			} else {
				out = append(out, s)
			}
			continue
		}
		// Overlap: keep the non-overlapped fringes.
		if s.start < lo {
			out = append(out, lockSeg{s.start, lo, s.owner})
		}
		insert()
		if s.end > hi {
			if n := len(out); n > 0 && out[n-1].owner == s.owner && out[n-1].end == hi {
				out[n-1].end = s.end
			} else {
				out = append(out, lockSeg{hi, s.end, s.owner})
			}
		}
	}
	insert()
	return out
}

// Property: on random acquire sequences, the in-place splice leaves the
// same segments as the copying rebuild, and so charges the same RPCs.
// Ranges are short against the unit space so that tables fragment into
// many segments, and few owners so that touching same-owner merges occur.
func TestSpliceMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lt, ref lockTable
		units := int64(8 + rng.Intn(256))
		for k := 0; k < 400; k++ {
			lo := rng.Int63n(units)
			hi := lo + 1 + rng.Int63n(min64(units-lo, 1+rng.Int63n(16)))
			node := rng.Intn(1 + rng.Intn(4))
			want := ref.runs(lo, hi, node)
			ref.segs = rebuildOwner(ref.segs, lo, hi, node)
			if got := lt.acquire(lo, hi, node); got != want {
				t.Logf("seed %d step %d: acquire(%d, %d, %d) = %d RPCs, rebuild charges %d", seed, k, lo, hi, node, got, want)
				return false
			}
			if !slices.Equal(lt.segs, ref.segs) {
				t.Logf("seed %d step %d: acquire(%d, %d, %d):\nsplice  %v\nrebuild %v", seed, k, lo, hi, node, lt.segs, ref.segs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
