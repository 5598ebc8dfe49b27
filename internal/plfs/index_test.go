package plfs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEntryCodecRoundtrip(t *testing.T) {
	in := []Entry{
		{LogicalOff: 0, Length: 100, PhysOff: 0, Timestamp: 42, Dropping: 3, Rank: 7},
		{LogicalOff: 1 << 40, Length: 1 << 20, PhysOff: 100, Timestamp: 43, Dropping: 3, Rank: 7},
	}
	buf := appendFrame(nil, frame{kind: frameIndex, recs: recsOf(in)})
	if len(buf) != 2*EntryBytes {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	out, err := decodeFrame(frameIndex, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recsOf(in), out.recs) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", in, out.recs)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := decodeFrame(frameIndex, make([]byte, EntryBytes+1)); err == nil {
		t.Fatal("accepted truncated index")
	}
}

// TestDecodeRewritesDroppingID: an index dropping's stored dropping id is
// the writer's; the reader replaces it with the dropping's place in its
// own canonical order.  The decoder keeps what is stored.
func TestDecodeRewritesDroppingID(t *testing.T) {
	fs := newMemFS()
	fs.files["ix"] = appendFrame(nil, frame{kind: frameIndex, recs: []Rec{{Entry: Entry{Length: 1, Dropping: 99}, Count: 1}}})
	if f, err := decodeFrame(frameIndex, fs.files["ix"]); err != nil || f.recs[0].Dropping != 99 {
		t.Fatalf("decoded %+v, %v; want the stored id 99", f.recs, err)
	}
	r := NewMount([]string{"/"}, Options{}).newReader(Ctx{Vols: []Backend{fs}}, "f")
	out, err := r.readShards([]shardRef{{Ref: droppingRef{Index: "ix"}, ID: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0].Dropping != 5 {
		t.Fatalf("dropping id = %d, want reader-assigned 5", out[0][0].Dropping)
	}
}

func TestGlobalIndexCodec(t *testing.T) {
	paths := []string{"/a/dropping.data.1.0", "/b/dropping.data.1.1"}
	entries := []Entry{
		{LogicalOff: 10, Length: 5, PhysOff: 0, Timestamp: 1, Dropping: 1, Rank: 1},
		{LogicalOff: 0, Length: 10, PhysOff: 0, Timestamp: 2, Dropping: 0, Rank: 0},
	}
	f, err := decodeFrame(frameGlobal, appendFrame(nil, frame{kind: frameGlobal, paths: paths, recs: recsOf(entries)}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, f.paths) || !reflect.DeepEqual(recsOf(entries), f.recs) {
		t.Fatal("global index roundtrip mismatch")
	}
	if _, err := decodeFrame(frameGlobal, []byte{1, 2}); err == nil {
		t.Fatal("accepted corrupt global index")
	}
}

// buildEntries builds the index of raw entry shards, each entry a single
// record, on one worker.
func buildEntries(shards [][]Entry, paths []string) *Index {
	recs := make([][]Rec, len(shards))
	for k, sh := range shards {
		recs[k] = recsOf(sh)
	}
	return BuildIndexRecs(recs, paths, 1)
}

func TestBuildIndexResolvesByTimestamp(t *testing.T) {
	// Two writers hit the same logical range; the later timestamp wins.
	shards := [][]Entry{
		{{LogicalOff: 0, Length: 100, PhysOff: 0, Timestamp: 10, Dropping: 0, Rank: 0}},
		{{LogicalOff: 50, Length: 100, PhysOff: 0, Timestamp: 20, Dropping: 1, Rank: 1}},
	}
	ix := buildEntries(shards, []string{"d0", "d1"})
	if ix.Size() != 150 {
		t.Fatalf("size = %d", ix.Size())
	}
	pieces := ix.Lookup(0, 150)
	if len(pieces) != 2 {
		t.Fatalf("pieces = %+v", pieces)
	}
	if pieces[0].Dropping != 0 || pieces[0].Length != 50 {
		t.Fatalf("piece 0 = %+v", pieces[0])
	}
	if pieces[1].Dropping != 1 || pieces[1].Length != 100 || pieces[1].PhysOff != 0 {
		t.Fatalf("piece 1 = %+v", pieces[1])
	}
}

func TestBuildIndexTieBrokenByRank(t *testing.T) {
	shards := [][]Entry{
		{{LogicalOff: 0, Length: 10, Timestamp: 5, Dropping: 0, Rank: 2}},
		{{LogicalOff: 0, Length: 10, Timestamp: 5, Dropping: 1, Rank: 9}},
	}
	ix := buildEntries(shards, []string{"d0", "d1"})
	pieces := ix.Lookup(0, 10)
	if len(pieces) != 1 || pieces[0].Dropping != 1 {
		t.Fatalf("tie not broken by higher rank: %+v", pieces)
	}
}

func TestLookupHoles(t *testing.T) {
	shards := [][]Entry{
		{{LogicalOff: 100, Length: 50, PhysOff: 7, Timestamp: 1, Dropping: 0}},
	}
	ix := buildEntries(shards, []string{"d0"})
	pieces := ix.Lookup(50, 150)
	// [50,100) hole, [100,150) data, [150,200) hole.
	if len(pieces) != 3 {
		t.Fatalf("pieces = %+v", pieces)
	}
	if pieces[0].Dropping != -1 || pieces[0].Length != 50 {
		t.Fatalf("lead hole = %+v", pieces[0])
	}
	if pieces[1].PhysOff != 7 || pieces[1].Length != 50 {
		t.Fatalf("data = %+v", pieces[1])
	}
	if pieces[2].Dropping != -1 || pieces[2].Length != 50 {
		t.Fatalf("tail hole = %+v", pieces[2])
	}
}

func TestLookupPhysOffsetWithinSplitEntry(t *testing.T) {
	// One 100-byte write at logical 0, physical 1000.  Reading [30,60)
	// must map to physical [1030,1060).
	ix := buildEntries([][]Entry{{{LogicalOff: 0, Length: 100, PhysOff: 1000, Timestamp: 1}}}, []string{"d"})
	p := ix.Lookup(30, 30)
	if len(p) != 1 || p[0].PhysOff != 1030 || p[0].Length != 30 {
		t.Fatalf("pieces = %+v", p)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := BuildIndexRecs(nil, nil, 1)
	if ix.Size() != 0 || ix.Segments() != 0 {
		t.Fatal("empty index not empty")
	}
	p := ix.Lookup(0, 10)
	if len(p) != 1 || p[0].Dropping != -1 {
		t.Fatalf("lookup on empty = %+v", p)
	}
}

// Property: the index resolves exactly like a brute-force byte oracle:
// every byte belongs to the write with the highest (timestamp, rank).
func TestIndexMatchesByteOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const fileMax = 2000
		nWriters := 1 + rng.Intn(6)
		type byteOwner struct {
			drop int32
			phys int64
		}
		var oracle [fileMax]*byteOwner
		oracleSeq := make([]uint64, fileMax)
		shards := make([][]Entry, nWriters)
		paths := make([]string, nWriters)
		for w := 0; w < nWriters; w++ {
			paths[w] = "d"
			var phys int64
			for k := 0; k < 1+rng.Intn(20); k++ {
				off := int64(rng.Intn(fileMax - 100))
				n := int64(1 + rng.Intn(100))
				ts := int64(rng.Intn(50)) // deliberately collide timestamps
				e := Entry{LogicalOff: off, Length: n, PhysOff: phys,
					Timestamp: ts, Dropping: int32(w), Rank: int32(w)}
				shards[w] = append(shards[w], e)
				seq := seqOf(e)
				// >= : a same-seq later write by the same rank wins, matching
				// the resolver's later-entry tiebreak.
				for b := off; b < off+n; b++ {
					if seq >= oracleSeq[b] {
						oracleSeq[b] = seq
						oracle[b] = &byteOwner{drop: int32(w), phys: phys + (b - off)}
					}
				}
				phys += n
			}
		}
		ix := buildEntries(shards, paths)
		// Check a sampling of ranges against the oracle.
		for trial := 0; trial < 20; trial++ {
			off := int64(rng.Intn(fileMax))
			n := int64(1 + rng.Intn(fileMax-int(off)))
			cur := off
			for _, p := range ix.Lookup(off, n) {
				for i := int64(0); i < p.Length; i++ {
					b := cur + i
					o := oracle[b]
					if p.Dropping < 0 {
						if o != nil {
							return false
						}
						continue
					}
					if o == nil || o.drop != p.Dropping || o.phys != p.PhysOff+i {
						return false
					}
				}
				cur += p.Length
			}
			if cur != off+n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPartition(t *testing.T) {
	// chunk must partition [0,total) exactly across buckets.
	for _, tc := range []struct{ total, nb int }{{10, 3}, {7, 7}, {3, 5}, {0, 4}, {100, 1}} {
		seen := map[int]int{}
		for b := 0; b < tc.nb; b++ {
			for _, i := range chunk(tc.total, tc.nb, b) {
				seen[i]++
			}
		}
		if len(seen) != tc.total {
			t.Fatalf("chunk(%d,%d) covered %d items", tc.total, tc.nb, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("chunk(%d,%d): item %d assigned %d times", tc.total, tc.nb, i, c)
			}
		}
	}
}

// TestCompressRecs pins run detection record by record: what joins a run,
// what ends one, and that singles pass through with no stride.
func TestCompressRecs(t *testing.T) {
	e := func(logical, length, phys, ts int64) Entry {
		return Entry{LogicalOff: logical, Length: length, PhysOff: phys, Timestamp: ts, Rank: 3}
	}
	in := []Entry{
		e(0, 10, 0, 1), e(40, 10, 10, 2), e(80, 10, 20, 2), e(120, 10, 30, 5), // a run of four, stride 40
		e(170, 10, 40, 6),                    // another stride ends the run; a stride under Length (the next, +5) would overlap
		e(175, 10, 50, 7), e(300, 10, 60, 8), // any two ascending writes are a run of two
		e(200, 10, 70, 9),                      // descending: a single
		e(400, 10, 80, 3),                      // its timestamp goes backwards: joins nothing
		e(500, 20, 90, 10),                     // another length
		e(520, 20, 110, 11),                    // contiguous is a run too (stride == Length)
		e(560, 20, 131, 12),                    // physically not adjacent
		e(600, 0, 151, 13), e(600, 0, 151, 14), // empty writes never form runs
	}
	want := []Rec{
		{Entry: in[0], Count: 4, Stride: 40},
		{Entry: in[4], Count: 1},
		{Entry: in[5], Count: 2, Stride: 125},
		{Entry: in[7], Count: 1},
		{Entry: in[8], Count: 1},
		{Entry: in[9], Count: 2, Stride: 20},
		{Entry: in[11], Count: 1},
		{Entry: in[12], Count: 1},
		{Entry: in[13], Count: 1},
	}
	got := compressRecs(in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compressRecs:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != cap(got) {
		t.Errorf("records allocated for %d, hold %d", cap(got), len(got))
	}
	if got := compressRecs(nil); len(got) != 0 {
		t.Errorf("compressRecs(nil) = %+v", got)
	}
}

// TestWriteCloseAllocatesWhatItWrites: on osfs_smallrand's index shape —
// 32,768 writes at permuted offsets, so hardly anything compresses — the
// records and the recovery footer are one exactly sized allocation each.
func TestWriteCloseAllocatesWhatItWrites(t *testing.T) {
	const n = 32768
	entries := make([]Entry, n)
	for i, slot := range rand.New(rand.NewSource(1)).Perm(n) {
		entries[i] = Entry{LogicalOff: int64(slot) << 10, Length: 1 << 10, PhysOff: int64(i) << 10, Timestamp: int64(i)}
	}
	var recs []Rec
	if allocs := testing.AllocsPerRun(20, func() { recs = compressRecs(entries) }); allocs != 1 {
		t.Errorf("compressRecs allocated %.0f times, want 1", allocs)
	}
	if len(recs) != cap(recs) || expandedCount(recs) != n {
		t.Errorf("compressRecs: %d records in room for %d, standing for %d entries (want %d)", len(recs), cap(recs), expandedCount(recs), n)
	}
	var foot []byte
	footer := frame{kind: frameFooter, ents: entries}
	if allocs := testing.AllocsPerRun(20, func() { foot = appendFrame(nil, footer) }); allocs != 1 {
		t.Errorf("the footer's appendFrame allocated %.0f times, want 1", allocs)
	}
	if want := n*EntryBytes + 16; len(foot) != want || len(foot) != cap(foot) {
		t.Errorf("footer: %d bytes in room for %d, want %d", len(foot), cap(foot), want)
	}
}
