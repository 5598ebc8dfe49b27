package plfs

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"plfs/internal/payload"
)

func TestParallelFor(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {4, 10}, {16, 3}, {4, 0}, {0, 5}, {-1, 5}, {4, 1},
	} {
		var hits atomic.Int64
		seen := make([]atomic.Int32, tc.n)
		parallelFor(tc.workers, tc.n, func(i int) {
			hits.Add(1)
			seen[i].Add(1)
		})
		if hits.Load() != int64(tc.n) {
			t.Fatalf("parallelFor(%d,%d): %d calls", tc.workers, tc.n, hits.Load())
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("parallelFor(%d,%d): index %d visited %d times", tc.workers, tc.n, i, seen[i].Load())
			}
		}
	}
}

func TestChunkEdgeCases(t *testing.T) {
	// More buckets than items: the high buckets must be nil, not empty
	// non-nil slices (assignments stay allocation-free).
	for b := 0; b < 5; b++ {
		got := chunk(3, 5, b)
		if b < 3 {
			if len(got) != 1 || got[0] != b {
				t.Fatalf("chunk(3,5,%d) = %v", b, got)
			}
		} else if got != nil {
			t.Fatalf("chunk(3,5,%d) = %#v, want nil", b, got)
		}
	}
	// Zero items: every bucket is nil.
	for b := 0; b < 4; b++ {
		if got := chunk(0, 4, b); got != nil {
			t.Fatalf("chunk(0,4,%d) = %#v, want nil", b, got)
		}
	}
	// Uneven remainder: 10 items over 3 buckets goes 4/3/3 with the
	// remainder to the low buckets, contiguous and in order.
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for b := range want {
		if got := chunk(10, 3, b); !reflect.DeepEqual(got, want[b]) {
			t.Fatalf("chunk(10,3,%d) = %v, want %v", b, got, want[b])
		}
	}
}

// randomShards builds nShards droppings of random entries, dense enough
// that overlaps and timestamp ties are common.
func randomShards(rng *rand.Rand, nShards, perShard int) ([][]Entry, []string) {
	shards := make([][]Entry, nShards)
	paths := make([]string, nShards)
	for s := range shards {
		paths[s] = fmt.Sprintf("d%d", s)
		es := make([]Entry, perShard)
		var phys int64
		for i := range es {
			n := int64(1 + rng.Intn(512))
			es[i] = Entry{
				LogicalOff: int64(rng.Intn(1 << 16)),
				Length:     n,
				PhysOff:    phys,
				Timestamp:  int64(rng.Intn(64)), // force ties
				Dropping:   int32(s),
				Rank:       int32(s),
			}
			phys += n
		}
		shards[s] = es
	}
	return shards, paths
}

// refIndex is the reference the merge build must reproduce: flatten the
// expanded entries in shard order, make one span per entry with its flat
// position as Ref, let payload.Resolve sort and sweep them all, and write
// one segment row per resolved span.
func refIndex(shards [][]Entry, paths []string) *Index {
	var flat []Entry
	for _, sh := range shards {
		flat = append(flat, sh...)
	}
	spans := make([]payload.Span, len(flat))
	for i, e := range flat {
		spans[i] = payload.Span{Start: e.LogicalOff, End: e.LogicalOff + e.Length, Seq: seqOf(e), Ref: int32(i)}
	}
	ix := &Index{droppings: paths, rawCount: len(flat)}
	for _, s := range payload.Resolve(spans) {
		e := flat[s.Ref]
		ix.segLog = append(ix.segLog, s.Start)
		ix.segLen = append(ix.segLen, s.End-s.Start)
		ix.segPhys = append(ix.segPhys, e.PhysOff+(s.Start-e.LogicalOff))
		ix.segDrop = append(ix.segDrop, e.Dropping)
		ix.segRank = append(ix.segRank, e.Rank)
		ix.size = max(ix.size, s.End)
	}
	return ix
}

// sameSegments reports whether two indexes hold the same segment table.
func sameSegments(a, b *Index) bool {
	return slices.Equal(a.segLog, b.segLog) && slices.Equal(a.segLen, b.segLen) &&
		slices.Equal(a.segPhys, b.segPhys) && slices.Equal(a.segDrop, b.segDrop) &&
		slices.Equal(a.segRank, b.segRank)
}

// mixedShards draws record shards that between them take every way
// through the build: shards in random order, already ascending, made of
// several ascending runs (a spilled index), or descending with exact
// (Timestamp, Rank) ties; zero-length records; writes dense enough to pile
// up or sparse enough to stay apart; and, when runs is set, one run record
// per shard on a shared stride, with the singles either clear of the runs
// or free to land on them, and now and then a run on a stride of its own.
func mixedShards(rng *rand.Rand, runs bool) ([][]Rec, []string) {
	nShards := 1 + rng.Intn(8)
	space := 1 << (10 + 2*rng.Intn(6))
	const bs = 32
	var lowest int64 // singles start here
	clear := runs && rng.Intn(2) == 0
	if clear {
		lowest = int64(nShards) * bs * 8
	}
	shards := make([][]Rec, nShards)
	paths := make([]string, nShards)
	for s := range shards {
		paths[s] = fmt.Sprintf("d%d", s)
		es := make([]Entry, rng.Intn(300))
		var phys int64
		for i := range es {
			n := int64(rng.Intn(2 * bs)) // sometimes empty
			es[i] = Entry{
				LogicalOff: lowest + int64(rng.Intn(space)), Length: n, PhysOff: phys,
				Timestamp: int64(rng.Intn(8)), Dropping: int32(s), Rank: int32(s),
			}
			phys += n
		}
		byOff := func(a, b Entry) int { return cmp.Compare(a.LogicalOff, b.LogicalOff) }
		switch rng.Intn(4) {
		case 1:
			slices.SortStableFunc(es, byOff)
		case 2:
			for lo := 0; lo < len(es); {
				hi := min(len(es), lo+1+rng.Intn(100))
				slices.SortStableFunc(es[lo:hi], byOff)
				lo = hi
			}
		case 3:
			slices.SortStableFunc(es, func(a, b Entry) int { return byOff(b, a) })
			for i := range es {
				es[i].Timestamp = 5
			}
		}
		sh := recsOf(es)
		if runs {
			run := Rec{Count: int32(2 + rng.Intn(6)), Stride: int64(nShards) * bs, Entry: Entry{
				LogicalOff: int64(s) * bs, Length: bs, PhysOff: phys, Timestamp: 3, Dropping: int32(s), Rank: int32(s),
			}}
			if rng.Intn(16) == 0 {
				run.Stride *= 2
			}
			at := rng.Intn(len(sh) + 1)
			sh = slices.Insert(sh, at, run)
		}
		shards[s] = sh
	}
	return shards, paths
}

// Property, merge build ≡ reference: on one worker and on eight,
// BuildIndexRecs yields the reference's index.  Where it kept a run table,
// its segment table is the reference's over the singles alone, and a
// lookup of the whole file finds the reference's pieces.
func TestMergeBuildMatchesReference(t *testing.T) {
	var kept, expanded, overlapped int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards, paths := mixedShards(rng, seed%3 == 2)
		all := make([][]Entry, len(shards))
		singles := make([][]Entry, len(shards))
		for k, sh := range shards {
			all[k] = expandRecs(sh)
			for _, r := range sh {
				if r.Count <= 1 {
					singles[k] = append(singles[k], r.Entry)
				}
			}
		}
		want := refIndex(all, paths)
		if len(want.segLog) > want.rawCount/2 && len(want.segLog) != want.rawCount {
			overlapped++
		}
		for _, workers := range []int{1, 8} {
			got := BuildIndexRecs(shards, paths, workers)
			if got.Size() != want.Size() || got.RawEntries() != want.RawEntries() || !slices.Equal(got.Droppings(), paths) {
				t.Fatalf("seed %d, %d workers: size %d of %d entries, want %d of %d",
					seed, workers, got.Size(), got.RawEntries(), want.Size(), want.RawEntries())
			}
			segs := want
			if got.Runs() > 0 {
				kept++
				segs = refIndex(singles, paths)
				if g, w := got.Lookup(0, want.Size()), want.Lookup(0, want.Size()); !slices.Equal(g, w) {
					t.Fatalf("seed %d, %d workers: lookup through the run table found\n%+v\nwant\n%+v", seed, workers, g, w)
				}
			} else if slices.ContainsFunc(slices.Concat(shards...), isRun) {
				expanded++
			}
			if !sameSegments(got, segs) {
				t.Fatalf("seed %d, %d workers: segment table differs from the reference's", seed, workers)
			}
		}
	}
	if kept == 0 || expanded == 0 || overlapped == 0 {
		t.Fatalf("inputs missed a path: %d kept a run table, %d expanded their runs, %d mostly disjoint with some overlap",
			kept, expanded, overlapped)
	}
}

// sortKeys against the library's stable sort, on offsets that span a few
// bits, all 64 (negative ones and both extremes included), or none.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ks := make([]recKey, 1+rng.Intn(500))
		bits := []int{0, 3, 20, 41, 64}[trial%5]
		for i := range ks {
			var off int64
			switch {
			case bits == 64:
				off = int64(rng.Uint64())
			case bits > 0:
				off = rng.Int63n(1<<bits) - 1<<(bits-1)
			}
			ks[i] = recKey{off: off, idx: int32(i)}
		}
		if bits == 64 {
			ks[0].off, ks[len(ks)-1].off = math.MaxInt64, math.MinInt64
		}
		want := slices.Clone(ks)
		slices.SortStableFunc(want, func(a, b recKey) int { return cmp.Compare(a.off, b.off) })
		if sortKeys(ks); !slices.Equal(ks, want) {
			t.Fatalf("trial %d (%d keys over %d bits): not the stable order by offset", trial, len(ks), bits)
		}
	}
}

// permutedShards is the small-random checkpoint's index: every shard
// holds perShard single records of bs bytes at slots drawn from one
// permutation of all slots, so nothing overlaps and nothing is in order.
func permutedShards(rng *rand.Rand, nShards, perShard int, bs int64) ([][]Rec, []string) {
	perm := rng.Perm(nShards * perShard)
	shards := make([][]Rec, nShards)
	paths := make([]string, nShards)
	for s := range shards {
		paths[s] = fmt.Sprintf("d%d", s)
		shards[s] = make([]Rec, perShard)
		for k := range shards[s] {
			shards[s][k] = Rec{Count: 1, Entry: Entry{
				LogicalOff: int64(perm[s*perShard+k]) * bs, Length: bs, PhysOff: int64(k) * bs,
				Timestamp: int64(k + 1), Dropping: int32(s), Rank: int32(s),
			}}
		}
	}
	return shards, paths
}

// A build of disjoint records allocates its tables — per-shard keys, heap,
// columns — and nothing per record.
func TestBuildIndexAllocsConstant(t *testing.T) {
	for _, perShard := range []int{1024, 32768} {
		shards, paths := permutedShards(rand.New(rand.NewSource(1)), 2, perShard, 1024)
		allocs := testing.AllocsPerRun(3, func() {
			if ix := BuildIndexRecs(shards, paths, 1); ix.Segments() != 2*perShard {
				t.Fatalf("built %d segments, want %d", ix.Segments(), 2*perShard)
			}
		})
		if allocs > 16 {
			t.Errorf("2 x %d disjoint records: %.0f allocs per build, want at most 16", perShard, allocs)
		}
	}
}

// The flattened global index must preserve non-canonical dropping ids
// byte-for-byte through encode/decode (the encoder's old second pass that
// re-wrote ids was a no-op and has been removed).
func TestGlobalIndexPreservesDroppingIDs(t *testing.T) {
	paths := []string{"/v0/d0", "/v1/d1", "/v0/d2"}
	entries := []Entry{
		{LogicalOff: 0, Length: 4, PhysOff: 0, Timestamp: 3, Dropping: 2, Rank: 5},
		{LogicalOff: 4, Length: 4, PhysOff: 9, Timestamp: 1, Dropping: 0, Rank: 1},
		{LogicalOff: 8, Length: 4, PhysOff: 2, Timestamp: 2, Dropping: 1, Rank: 0},
	}
	f, err := decodeFrame(frameGlobal, appendFrame(nil, frame{kind: frameGlobal, paths: paths, recs: recsOf(entries)}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, f.paths) {
		t.Fatalf("paths changed: %v", f.paths)
	}
	for i := range entries {
		if f.recs[i].Dropping != entries[i].Dropping {
			t.Fatalf("entry %d dropping id %d -> %d", i, entries[i].Dropping, f.recs[i].Dropping)
		}
	}
	if !reflect.DeepEqual(recsOf(entries), f.recs) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", entries, f.recs)
	}
}

func TestPlanBatches(t *testing.T) {
	pieces := []Piece{
		{Logical: 0, Length: 10, Dropping: 0, PhysOff: 0},
		{Logical: 10, Length: 10, Dropping: 0, PhysOff: 10}, // contiguous: merges
		{Logical: 20, Length: 10, Dropping: 0, PhysOff: 50}, // gap: new batch
		{Logical: 30, Length: 10, Dropping: 1, PhysOff: 60}, // new dropping
		{Logical: 40, Length: 10, Dropping: -1},             // hole: excluded
		{Logical: 50, Length: 10, Dropping: 1, PhysOff: 70}, // adjacent to piece 3
	}
	got := planBatches(pieces, 0)
	want := []readBatch{
		{drop: 0, phys: 0, length: 20, pieces: []int32{0, 1}},
		{drop: 0, phys: 50, length: 10, pieces: []int32{2}},
		{drop: 1, phys: 60, length: 20, pieces: []int32{3, 5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %+v, want %+v", got, want)
	}
}

func TestPlanBatchesEdgeCases(t *testing.T) {
	if got := planBatches(nil, 0); len(got) != 0 {
		t.Fatalf("empty lookup planned %d batches", len(got))
	}
	if got := planBatches([]Piece{{Logical: 3, Length: 7, Dropping: -1}}, 1<<20); len(got) != 0 {
		t.Fatalf("all-hole lookup planned %d batches", len(got))
	}
	single := []Piece{{Logical: 5, Length: 9, Dropping: 2, PhysOff: 100}}
	got := planBatches(single, 0)
	want := []readBatch{{drop: 2, phys: 100, length: 9, pieces: []int32{0}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single piece: %+v, want %+v", got, want)
	}

	// Exactly-adjacent pieces of the same dropping merge at gap 0 even
	// when they arrive out of physical order and are logically far apart
	// (a lookup split across segment boundaries).
	split := []Piece{
		{Logical: 9000, Length: 10, Dropping: 0, PhysOff: 10},
		{Logical: 0, Length: 10, Dropping: 0, PhysOff: 0},
	}
	got = planBatches(split, 0)
	want = []readBatch{{drop: 0, phys: 0, length: 20, pieces: []int32{1, 0}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-segment adjacency: %+v, want %+v", got, want)
	}

	// A piece overlapping the current batch boundary must extend to the
	// max end, not shrink the batch (overlap comes from overwrites whose
	// resolved pieces share physical bytes).
	overlap := []Piece{
		{Logical: 0, Length: 20, Dropping: 0, PhysOff: 0},
		{Logical: 20, Length: 5, Dropping: 0, PhysOff: 10}, // ends inside batch
		{Logical: 25, Length: 10, Dropping: 0, PhysOff: 18},
	}
	got = planBatches(overlap, 0)
	want = []readBatch{{drop: 0, phys: 0, length: 28, pieces: []int32{0, 1, 2}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overlap at boundary: %+v, want %+v", got, want)
	}
}

func TestPlanBatchesGapSweep(t *testing.T) {
	// Pieces 100 bytes apart in the same dropping: gap below 100 keeps
	// them separate, gap >= 100 sieves them into one read whose length
	// covers the holes between them.
	pieces := []Piece{
		{Logical: 0, Length: 10, Dropping: 0, PhysOff: 0},
		{Logical: 10, Length: 10, Dropping: 0, PhysOff: 110},
		{Logical: 20, Length: 10, Dropping: 0, PhysOff: 220},
	}
	for _, tc := range []struct {
		gap     int64
		batches int
		total   int64
	}{
		{0, 3, 30}, {99, 3, 30}, {100, 1, 230}, {1 << 20, 1, 230},
	} {
		got := planBatches(pieces, tc.gap)
		var total int64
		for _, b := range got {
			total += b.length
		}
		if len(got) != tc.batches || total != tc.total {
			t.Fatalf("gap %d: %d batches totalling %d bytes, want %d/%d",
				tc.gap, len(got), total, tc.batches, tc.total)
		}
	}
}
