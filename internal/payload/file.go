package payload

import (
	"cmp"
	"slices"
	"sort"
)

// Span is a half-open byte range [Start, End) carrying a resolution
// sequence number and an opaque reference into caller-owned storage.  It is
// the common currency of overwrite resolution: both the simulated file
// store and the PLFS global index resolve overlapping writes with the same
// sweep (highest Seq wins), exactly mirroring PLFS's use of timestamps to
// order writes to the same offset.
type Span struct {
	Start, End int64
	Seq        uint64
	Ref        int32
}

// Resolve flattens possibly-overlapping spans into a sorted, disjoint
// cover in which, at every byte, the span with the highest Seq wins
// (ties broken toward the later Ref).  Adjacent pieces of the same Ref are
// merged.  The result references the same Refs, clipped.
func Resolve(spans []Span) []Span {
	in := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		in = append(in, s)
	}
	if len(in) == 0 {
		return nil
	}
	slices.SortFunc(in, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	return resolveSweep(in)
}

// ResolveSorted is Resolve for spans already sorted by Start (ascending):
// it skips the global re-sort, so callers that merge pre-sorted runs — the
// index build hands it each cluster of overlapping records straight out of
// its k-way merge — pay only the linear sweep plus one sort of the End
// bounds.  The output is identical to Resolve on the same multiset of
// spans.  Empty spans (End <= Start) are dropped; out-of-order input is a
// contract violation and produces an unspecified cover.
func ResolveSorted(spans []Span) []Span {
	in := spans
	for i, s := range in {
		if s.End <= s.Start {
			// Rare path: compact the empties away, preserving order.
			in = append(make([]Span, 0, len(spans)), spans[:i]...)
			for _, s := range spans[i:] {
				if s.End > s.Start {
					in = append(in, s)
				}
			}
			break
		}
	}
	if len(in) == 0 {
		return nil
	}
	return resolveSweep(in)
}

// resolveSweep runs the boundary sweep over spans sorted by Start.  The
// result is a pure function of the span multiset: equal-Start spans all
// activate at the same boundary, and the winner at each cell is picked by
// (Seq, Ref) alone, so any valid sort order yields the same cover.
func resolveSweep(in []Span) []Span {
	// Bounds are every distinct Start and End.  Starts arrive sorted; only
	// the Ends need sorting, then a linear merge of the two runs.
	starts := make([]int64, len(in))
	ends := make([]int64, len(in))
	for i, s := range in {
		starts[i] = s.Start
		ends[i] = s.End
	}
	slices.Sort(ends)
	bounds := mergeSortedInt64(starts, ends)

	out := make([]Span, 0, len(in))
	var active spanHeap
	next := 0 // next span (by Start) to activate
	for bi := 0; bi+1 < len(bounds); bi++ {
		lo, hi := bounds[bi], bounds[bi+1]
		for next < len(in) && in[next].Start <= lo {
			active.push(in[next])
			next++
		}
		for len(active) > 0 && active[0].End <= lo {
			active.pop()
		}
		if len(active) == 0 {
			continue
		}
		w := active[0]
		if n := len(out); n > 0 && out[n-1].Ref == w.Ref && out[n-1].End == lo &&
			out[n-1].Seq == w.Seq {
			out[n-1].End = hi
		} else {
			out = append(out, Span{Start: lo, End: hi, Seq: w.Seq, Ref: w.Ref})
		}
	}
	return out
}

// mergeSortedInt64 merges two sorted runs into one sorted, deduplicated
// slice.
func mergeSortedInt64(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var x int64
		switch {
		case j >= len(b) || (i < len(a) && a[i] <= b[j]):
			x = a[i]
			i++
		default:
			x = b[j]
			j++
		}
		if n := len(out); n == 0 || out[n-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// spanHeap is a max-heap of active spans on (Seq, Ref): the winner is at
// the top.  Dead spans (End <= cursor) are lazily removed.  It holds Span
// values and sifts them itself, so a push boxes nothing.
type spanHeap []Span

// beats reports whether a wins over b where both cover a byte.
func (a Span) beats(b Span) bool {
	if a.Seq != b.Seq {
		return a.Seq > b.Seq
	}
	return a.Ref > b.Ref
}

func (h *spanHeap) push(s Span) {
	*h = append(*h, s)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].beats(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the top span.
func (h *spanHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].beats(q[c]) {
			c++
		}
		if !q[c].beats(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// File is a sparse byte store built from payload extents.  A write at or
// past the end of file with nothing queued (an append: every write to a
// PLFS data dropping) lands in the resolved extent list at once.  Any
// other write is queued and consolidated lazily (on the first read after
// it), so a write-heavy phase costs O(1) amortized per write and a
// consolidation costs O(n log n) — matching how the simulator's workloads
// behave (bulk-synchronous write phase, then read phase).  Either way the
// resolved list comes out the same.
//
// Overlapping writes resolve to the latest (highest write sequence), like
// a POSIX file written without concurrent overlap guarantees.
type File struct {
	resolved []fext   // sorted, disjoint
	pending  []pwrite // unconsolidated writes, in arrival order
	seq      uint64
	size     int64
}

type fext struct {
	off int64
	p   Payload
}

type pwrite struct {
	off int64
	seq uint64
	p   Payload
}

// Size returns the file size (highest written byte + 1).
func (f *File) Size() int64 { return f.size }

// WriteAt records a write of p at offset off.  A write that can overlap
// nothing (nothing queued, off at or past the end of file) is resolved on
// the spot; any other write is queued for the next consolidation.
func (f *File) WriteAt(off int64, p Payload) {
	if p.Length == 0 {
		return
	}
	if len(f.pending) == 0 && off >= f.size {
		f.extend(off, p)
		f.size = off + p.Length
		return
	}
	f.queue(off, p)
}

// queue defers a write of p at off to the next consolidation.
func (f *File) queue(off int64, p Payload) {
	f.seq++
	f.pending = append(f.pending, pwrite{off: off, seq: f.seq, p: p})
	f.size = max(f.size, off+p.Length)
}

// extend appends an extent that starts at or past the last resolved one's
// end, coalescing with it where p continues it.  It is consolidate's
// output step, so both paths build the same list.
func (f *File) extend(off int64, p Payload) {
	if n := len(f.resolved); n > 0 {
		last := &f.resolved[n-1]
		if last.off+last.p.Length == off && last.p.canCoalesce(p) {
			last.p.Length += p.Length
			return
		}
	}
	f.resolved = append(f.resolved, fext{off: off, p: p})
}

// Append writes p at the current end of file and returns the offset it
// landed at.
func (f *File) Append(p Payload) int64 {
	off := f.size
	f.WriteAt(off, p)
	return off
}

// consolidate folds pending writes into the resolved extent list.
func (f *File) consolidate() {
	if len(f.pending) == 0 {
		return
	}
	spans := make([]Span, 0, len(f.resolved)+len(f.pending))
	store := make([]Payload, 0, cap(spans))
	add := func(off int64, seq uint64, p Payload) {
		store = append(store, p)
		spans = append(spans, Span{Start: off, End: off + p.Length, Seq: seq, Ref: int32(len(store) - 1)})
	}
	for _, e := range f.resolved {
		add(e.off, 0, e.p) // already-resolved extents never overlap; seq 0 is safe
	}
	for _, w := range f.pending {
		add(w.off, w.seq, w.p)
	}
	f.pending = f.pending[:0]
	res := Resolve(spans)
	f.resolved = f.resolved[:0]
	for _, s := range res {
		p := store[s.Ref].Slice(s.Start-spans[s.Ref].Start, s.End-s.Start)
		f.extend(s.Start, p)
	}
}

// ReadAt returns the byte range [off, off+length), with holes reading as
// zeros.  Reading past EOF returns zeros for the overhang (the simulated
// store is a sparse object store, not a POSIX fd; EOF handling lives in
// the filesystem layer above).
func (f *File) ReadAt(off, length int64) List {
	if length <= 0 {
		return nil
	}
	f.consolidate()
	var out List
	end := off + length
	// Find the first extent ending after off.
	i := sort.Search(len(f.resolved), func(i int) bool {
		e := f.resolved[i]
		return e.off+e.p.Length > off
	})
	cur := off
	for ; i < len(f.resolved) && cur < end; i++ {
		e := f.resolved[i]
		if e.off > cur {
			gap := e.off - cur
			if gap > end-cur {
				gap = end - cur
			}
			out = out.Append(Zeros(gap))
			cur += gap
			if cur >= end {
				break
			}
		}
		lo := cur - e.off
		take := e.p.Length - lo
		if take > end-cur {
			take = end - cur
		}
		out = out.Append(e.p.Slice(lo, take))
		cur += take
	}
	if cur < end {
		out = out.Append(Zeros(end - cur))
	}
	return out
}

// Extents returns the number of resolved extents (after consolidation),
// a memory/diagnostic metric.
func (f *File) Extents() int {
	f.consolidate()
	return len(f.resolved)
}

// Truncate resets the file to empty if n == 0; partial truncation clips
// extents.  (Checkpoint workloads only ever truncate to zero on recreate,
// but the general form is cheap to support.)
func (f *File) Truncate(n int64) {
	f.consolidate()
	if n <= 0 {
		f.resolved = f.resolved[:0]
		f.size = 0
		return
	}
	out := f.resolved[:0]
	for _, e := range f.resolved {
		if e.off >= n {
			break
		}
		if e.off+e.p.Length > n {
			e.p = e.p.Slice(0, n-e.off)
		}
		out = append(out, e)
	}
	f.resolved = out
	if f.size > n {
		f.size = n
	}
}
