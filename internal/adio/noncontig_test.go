package adio_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"plfs/internal/adio"
	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// randPattern builds a random datatype whose extent fits in region and
// whose flattened segments are pairwise disjoint (overlap semantics are
// pinned separately in TestSieveOverlapMatchesNaive).
func randPattern(rng *rand.Rand, region int64) *adio.Datatype {
	switch rng.Intn(4) {
	case 0: // contiguous run
		return adio.Contig(1 + rng.Int63n(region))
	case 1: // strided vector
		count := 1 + rng.Intn(8)
		stride := region / int64(count)
		bl := 1 + rng.Int63n(stride)
		return adio.Vector(count, bl, stride)
	case 2: // nested vector: rows of a 2-D tile
		outer := 1 + rng.Intn(4)
		ostride := region / int64(outer)
		inner := 1 + rng.Intn(3)
		istride := ostride / int64(inner)
		bl := 1 + rng.Int63n(max64(istride/2, 1))
		return adio.VectorOf(outer, adio.Vector(inner, bl, istride), ostride)
	default: // irregular: disjoint slots visited in shuffled order
		slots := 2 + rng.Intn(7)
		slot := region / int64(slots)
		blocks := make([]adio.Seg, 0, slots)
		for _, s := range rng.Perm(slots) {
			if rng.Intn(3) == 0 {
				continue // leave some slots empty
			}
			blocks = append(blocks, adio.Seg{Off: int64(s) * slot, Len: 1 + rng.Int63n(slot)})
		}
		if len(blocks) == 0 {
			blocks = append(blocks, adio.Seg{Off: 0, Len: 1})
		}
		return adio.Indexed(blocks)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// chop splits raw bytes into a payload list with random piece boundaries,
// so vectored paths see multi-piece data.
func chop(rng *rand.Rand, b []byte) payload.List {
	var out payload.List
	for len(b) > 0 {
		n := 1 + rng.Intn(len(b))
		out = out.Append(payload.FromBytes(append([]byte(nil), b[:n]...)))
		b = b[n:]
	}
	return out
}

// TestVectoredMatchesNaiveProperty is the round-trip property test of the
// noncontiguous engine: for random datatypes and payloads, WriteAll
// through every transformation (sieve, list, two-phase) must leave the
// file byte-identical to the naive per-segment writes, and ReadAtv must
// hand back exactly the written bytes — across {ufs, plfs} x {serial,
// collective} x {sieve on/off}, with ranks as goroutines (run under
// -race).
func TestVectoredMatchesNaiveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const region = int64(4096)
		ok := true
		for _, n := range []int{1, 4} { // serial, collective
			// Per-rank patterns and payloads, disjoint regions across ranks.
			pats := make([]*adio.Datatype, n)
			raws := make([][]byte, n)
			oracle := make([]byte, int64(n)*region)
			var span int64
			for r := 0; r < n; r++ {
				pats[r] = randPattern(rng, region)
				raws[r] = make([]byte, pats[r].Size())
				rng.Read(raws[r])
				base := int64(r) * region
				var pos int64
				for _, e := range pats[r].Segs(base) {
					copy(oracle[e.Off:e.End()], raws[r][pos:pos+e.Len])
					pos += e.Len
					if e.End() > span {
						span = e.End()
					}
				}
			}
			for _, driver := range []string{"ufs", "plfs"} {
				for _, method := range []adio.IOMethod{adio.MethodSieve, adio.MethodList, adio.MethodTwoPhase} {
					if !checkOneCombo(t, rng, driver, method, n, region, span, pats, raws, oracle) {
						ok = false
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// checkOneCombo writes the ranks' patterns twice — once through method,
// once naively — and checks both files against the byte oracle, plus the
// per-rank ReadAtv round-trip through the same method.
func checkOneCombo(t *testing.T, rng *rand.Rand, driver string, method adio.IOMethod,
	n int, region, span int64, pats []*adio.Datatype, raws [][]byte, oracle []byte) bool {
	t.Helper()
	var drv adio.Driver
	var methodPath, naivePath string
	switch driver {
	case "ufs":
		dir := t.TempDir()
		drv = adio.UFS{}
		methodPath, naivePath = dir+"/m", dir+"/naive"
	default:
		mount := plfs.NewMount([]string{t.TempDir()}, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 2})
		drv = adio.PLFS{Mount: mount}
		methodPath, naivePath = "m", "naive"
	}
	// Chop payloads up front: rand.Rand is not goroutine-safe, and the
	// per-rank goroutines below must not share it.
	chopped := make([]payload.List, n)
	for r := 0; r < n; r++ {
		chopped[r] = chop(rng, raws[r])
	}
	write := func(path string, h adio.Hints) bool {
		good := true
		runRanks(t, n, func(ctx plfs.Ctx, rank int) {
			f, err := drv.Open(ctx, path, adio.WriteCreate, h)
			if err != nil {
				t.Errorf("%s/%s n=%d open: %v", driver, h.IOMethod, n, err)
				good = false
				return
			}
			data := chopped[rank]
			if err := f.WriteAll(int64(rank)*region, pats[rank], data); err != nil {
				t.Errorf("%s/%s n=%d write: %v", driver, h.IOMethod, n, err)
				good = false
			}
			if err := f.Close(); err != nil {
				t.Errorf("%s/%s n=%d close: %v", driver, h.IOMethod, n, err)
				good = false
			}
		})
		return good
	}
	hints := adio.Hints{IOMethod: method, ProcsPerNode: 2, SieveGap: 256}
	if !write(methodPath, hints) || !write(naivePath, adio.Hints{IOMethod: adio.MethodNaive}) {
		return false
	}
	// Whole-file compare: method file == naive file == oracle.
	match := true
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		read := func(path string, h adio.Hints) []byte {
			f, err := drv.Open(ctx, path, adio.ReadOnly, h)
			if err != nil {
				t.Errorf("%s read open %s: %v", driver, path, err)
				return nil
			}
			defer f.Close()
			pl, err := f.ReadAt(0, span)
			if err != nil {
				t.Errorf("%s read %s: %v", driver, path, err)
				return nil
			}
			return pl.Materialize()
		}
		got := read(methodPath, hints)
		want := read(naivePath, adio.Hints{IOMethod: adio.MethodNaive})
		if got == nil || want == nil {
			match = false
			return
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, oracle[:span]) {
			t.Errorf("%s/%s n=%d: file diverges from naive/oracle", driver, method, n)
			match = false
		}
	})
	if !match {
		return false
	}
	// Per-rank vectored read round-trip through the same method.
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		f, err := drv.Open(ctx, methodPath, adio.ReadOnly, hints)
		if err != nil {
			t.Errorf("%s/%s readv open: %v", driver, method, err)
			match = false
			return
		}
		defer f.Close()
		got, err := f.ReadAtv(pats[rank].Segs(int64(rank) * region))
		if err != nil {
			t.Errorf("%s/%s readv: %v", driver, method, err)
			match = false
			return
		}
		if !bytes.Equal(got.Materialize(), raws[rank]) {
			t.Errorf("%s/%s n=%d rank %d: ReadAtv round-trip mismatch", driver, method, n, rank)
			match = false
		}
	})
	return match
}

// TestSieveOverlapMatchesNaive pins the overlap semantics of write-side
// sieving: overlapping segments in one vectored call must resolve exactly
// as the equivalent naive write sequence (later segments win).
func TestSieveOverlapMatchesNaive(t *testing.T) {
	dir := t.TempDir()
	segs := []adio.Seg{{Off: 0, Len: 8}, {Off: 4, Len: 8}, {Off: 2, Len: 4}, {Off: 20, Len: 6}}
	raw := make([]byte, 26)
	for i := range raw {
		raw[i] = byte(i + 1)
	}
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		for _, v := range []struct {
			path string
			h    adio.Hints
		}{
			{"sieve", adio.Hints{IOMethod: adio.MethodSieve, SieveGap: 1 << 20}},
			{"naive", adio.Hints{IOMethod: adio.MethodNaive}},
		} {
			f, err := adio.UFS{}.Open(ctx, dir+"/"+v.path, adio.WriteCreate, v.h)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.WriteAtv(segs, payload.List{payload.FromBytes(raw)}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		read := func(path string) []byte {
			f, err := adio.UFS{}.Open(ctx, dir+"/"+path, adio.ReadOnly, adio.Hints{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			pl, err := f.ReadAt(0, 26)
			if err != nil {
				t.Fatal(err)
			}
			return pl.Materialize()
		}
		if got, want := read("sieve"), read("naive"); !bytes.Equal(got, want) {
			t.Errorf("sieved overlaps diverge from naive order:\n got %v\nwant %v", got, want)
		}
	})
}

// TestWriteSieveRMWPreservesGaps drives the write-sieving RMW directly:
// gap bytes inside a coalesced window must be reread and written back
// unchanged below EOF, must come back as zeros past EOF, and the
// amplification must be charged to the obs counters.
func TestWriteSieveRMWPreservesGaps(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		ctx.Obs = reg
		f, err := adio.UFS{}.Open(ctx, dir+"/rmw", adio.WriteCreate,
			adio.Hints{IOMethod: adio.MethodSieve, SieveGap: 4096})
		if err != nil {
			t.Fatal(err)
		}
		// Background bytes the RMW must preserve.
		bg := bytes.Repeat([]byte{0xAA}, 1000)
		if err := f.WriteAt(0, payload.FromBytes(bg)); err != nil {
			t.Fatal(err)
		}
		// Two segments 200 bytes apart coalesce into one RMW window
		// [100,350); the gap [150,300) is live file data.
		segs := []adio.Seg{{Off: 100, Len: 50}, {Off: 300, Len: 50}}
		if err := f.WriteAtv(segs, payload.List{payload.Synthetic(9, 0, 100)}); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("plfs.write.sieve_rmw").Value(); got != 1 {
			t.Errorf("sieve_rmw = %d, want 1", got)
		}
		if got := reg.Counter("plfs.write.sieve_read_bytes").Value(); got != 250 {
			t.Errorf("sieve_read_bytes = %d, want 250", got)
		}
		if got := reg.Counter("plfs.write.sieve_wasted").Value(); got != 150 {
			t.Errorf("sieve_wasted = %d, want 150", got)
		}
		// A window wholly past EOF: the gap is a hole and must stay zeros.
		past := []adio.Seg{{Off: 2000, Len: 50}, {Off: 2300, Len: 50}}
		if err := f.WriteAtv(past, payload.List{payload.Synthetic(9, 100, 100)}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter("plfs.write.sieve_rmw").Value(), int64(2); got != want {
			t.Errorf("obs sieve_rmw = %d, want %d", got, want)
		}
		if got := reg.Counter("plfs.write.sieve_read_bytes").Value(); got != 250+350 {
			t.Errorf("obs sieve_read_bytes = %d, want %d", got, 250+350)
		}
		r, err := adio.UFS{}.Open(ctx, dir+"/rmw", adio.ReadOnly, adio.Hints{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		pl, err := r.ReadAt(0, 2350)
		if err != nil {
			t.Fatal(err)
		}
		got := pl.Materialize()
		for i := 150; i < 300; i++ {
			if got[i] != 0xAA {
				t.Fatalf("RMW clobbered live byte %d: %#x", i, got[i])
			}
		}
		for i := 2050; i < 2300; i++ {
			if got[i] != 0 {
				t.Fatalf("sieving invented nonzero data at %d: %#x", i, got[i])
			}
		}
	})
}

// TestListIOSingleBackendBatch asserts the O(1)-requests property of list
// I/O on a vectored-capable backend: K segments, one backend request per
// call — against the naive baseline's K — counted as the store receives
// them.
func TestListIOSingleBackendBatch(t *testing.T) {
	dir := t.TempDir()
	const k = 8
	segs := make([]adio.Seg, k)
	for i := range segs {
		segs[i] = adio.Seg{Off: int64(i) * 128, Len: 32}
	}
	data := payload.List{payload.Synthetic(3, 0, k*32)}
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		// calls counts the data calls the store receives, and segsSeen
		// the extents they carry (one for a single-extent call).
		var calls, segsSeen int
		ctx.Vols = []plfs.Backend{plfs.Interpose(ctx.Vols[0], func(op *plfs.Op, call func() error) error {
			if op.Kind.Data() {
				calls++
				segsSeen += max(len(op.Segs), 1)
			}
			return call()
		})}
		for _, v := range []struct {
			method    adio.IOMethod
			wantCalls int
		}{
			{adio.MethodList, 1},
			{adio.MethodNaive, k},
		} {
			f, err := adio.UFS{}.Open(ctx, fmt.Sprintf("%s/%s", dir, v.method), adio.WriteCreate,
				adio.Hints{IOMethod: v.method})
			if err != nil {
				t.Fatal(err)
			}
			calls, segsSeen = 0, 0
			if err := f.WriteAtv(segs, data); err != nil {
				t.Fatal(err)
			}
			if calls != v.wantCalls || segsSeen != k {
				t.Errorf("%s: write reached the store as %d calls carrying %d extents, want %d carrying %d",
					v.method, calls, segsSeen, v.wantCalls, k)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := adio.UFS{}.Open(ctx, fmt.Sprintf("%s/%s", dir, v.method), adio.ReadOnly,
				adio.Hints{IOMethod: v.method})
			if err != nil {
				t.Fatal(err)
			}
			calls, segsSeen = 0, 0
			if _, err := r.ReadAtv(segs); err != nil {
				t.Fatal(err)
			}
			if calls != v.wantCalls || segsSeen != k {
				t.Errorf("%s: read reached the store as %d calls carrying %d extents, want %d carrying %d",
					v.method, calls, segsSeen, v.wantCalls, k)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
