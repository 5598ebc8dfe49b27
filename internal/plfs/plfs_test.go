package plfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"plfs/internal/comm"
	"plfs/internal/localcomm"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// fakeClock hands out strictly increasing timestamps (safe across
// goroutines), standing in for the paper's synchronized cluster clocks.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) Now() int64 { return c.t.Add(1) }

// rig is an engineless PLFS test rig: one mount over temp-dir osfs
// volumes by default, contexts built per rank.  newVols overrides the
// per-context volume set (the objfs crash tests route everything to one
// shared object store).
type rig struct {
	m       *Mountish
	roots   []string
	clock   *fakeClock
	newVols func() []plfs.Backend
}

// Mountish aliases to keep call sites short.
type Mountish = plfs.Mount

func newRig(t testing.TB, volumes int, opt plfs.Options) *rig {
	t.Helper()
	roots := make([]string, volumes)
	for i := range roots {
		roots[i] = t.TempDir()
	}
	return &rig{m: plfs.NewMount(roots, opt), roots: roots, clock: &fakeClock{}}
}

func (r *rig) ctx(rank int, c comm.Comm) plfs.Ctx {
	var vols []plfs.Backend
	if r.newVols != nil {
		vols = r.newVols()
	} else {
		vols = make([]plfs.Backend, len(r.roots))
		for i := range vols {
			vols[i] = osfs.New()
		}
	}
	return plfs.Ctx{
		Vols:       vols,
		Rank:       rank,
		Host:       rank / 4, // 4 "ranks" per fake host
		HostLeader: rank%4 == 0,
		Clock:      r.clock,
		Comm:       c,
	}
}

// runRanks drives n concurrent goroutine ranks through fn.
func runRanks(t testing.TB, r *rig, n int, fn func(ctx plfs.Ctx, rank int)) {
	t.Helper()
	comms := localcomm.New(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(r.ctx(i, comms[i]), i)
		}(i)
	}
	wg.Wait()
}

// writeN1 writes a strided N-1 pattern: rank i writes blocks at offsets
// (k*n + i) * bs, contents pattern-tagged by rank.
func writeN1(t testing.TB, m *plfs.Mount, ctx plfs.Ctx, rank, n, blocks int, bs int64, name string) {
	t.Helper()
	w, err := m.Create(ctx, name)
	if err != nil {
		t.Errorf("rank %d create: %v", rank, err)
		return
	}
	for k := 0; k < blocks; k++ {
		off := int64(k*n+rank) * bs
		if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
			t.Errorf("rank %d write: %v", rank, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Errorf("rank %d close: %v", rank, err)
	}
}

// verifyN1 checks the full strided file contents.
func verifyN1(t *testing.T, rd *plfs.Reader, n, blocks int, bs int64) {
	t.Helper()
	total := int64(n*blocks) * bs
	if rd.Size() != total {
		t.Errorf("size = %d, want %d", rd.Size(), total)
	}
	got, err := rd.ReadAt(0, total)
	if err != nil {
		t.Errorf("read: %v", err)
		return
	}
	for k := 0; k < blocks; k++ {
		for i := 0; i < n; i++ {
			off := int64(k*n+i) * bs
			want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
			if !payload.ContentEqual(got.Slice(off, bs), want) {
				t.Errorf("block (k=%d, rank=%d) content wrong", k, i)
				return
			}
		}
	}
}

func modes() []plfs.Mode {
	return []plfs.Mode{plfs.Original, plfs.IndexFlatten, plfs.ParallelIndexRead}
}

func TestN1WriteReadAllModes(t *testing.T) {
	for _, mode := range modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const n, blocks, bs = 8, 5, int64(512)
			r := newRig(t, 1, plfs.Options{IndexMode: mode, NumSubdirs: 4})
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				writeN1(t, r.m, ctx, rank, n, blocks, bs, "ckpt")
				rd, err := r.m.OpenReader(ctx, "ckpt")
				if err != nil {
					t.Errorf("rank %d open: %v", rank, err)
					return
				}
				verifyN1(t, rd, n, blocks, bs)
				rd.Close()
			})
		})
	}
}

func TestModesSeeIdenticalBytes(t *testing.T) {
	// Write once (no flatten), then read with Original and ParallelIndexRead
	// mounts over the same backing store; contents must match exactly.
	const n, blocks, bs = 6, 4, int64(256)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 4})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "f")
	})
	m2 := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
	var ref []byte
	runRanks(t, r, 1, func(ctx plfs.Ctx, rank int) {
		rd, err := r.m.OpenReader(ctx, "f")
		if err != nil {
			t.Error(err)
			return
		}
		pl, _ := rd.ReadAt(0, rd.Size())
		ref = pl.Materialize()
		rd.Close()
	})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		rd, err := m2.OpenReader(ctx, "f")
		if err != nil {
			t.Errorf("parallel open: %v", err)
			return
		}
		pl, _ := rd.ReadAt(0, rd.Size())
		if !bytes.Equal(pl.Materialize(), ref) {
			t.Error("parallel-index-read returned different bytes")
		}
		rd.Close()
	})
}

func TestSerialModeNoComm(t *testing.T) {
	// The FUSE-style path: no communicator, one writer, one reader.
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.ParallelIndexRead})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello transformative I/O")
	if err := w.Write(0, payload.FromBytes(data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := r.m.OpenReader(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Stats.Mode != plfs.Original {
		t.Fatalf("serial open used %v, want original", rd.Stats.Mode)
	}
	got, err := rd.ReadAt(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Materialize(), data) {
		t.Fatalf("got %q", got.Materialize())
	}
}

func TestFlattenWritesGlobalIndexAndSkipsPrivate(t *testing.T) {
	const n = 4
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.IndexFlatten, NumSubdirs: 2})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, 3, 128, "flat")
	})
	gi := filepath.Join(r.roots[0], "flat", "meta", "global.index")
	if _, err := os.Stat(gi); err != nil {
		t.Fatalf("global index missing: %v", err)
	}
	// No private index droppings should exist.
	matches, _ := filepath.Glob(filepath.Join(r.roots[0], "flat", "hostdir.*", "dropping.index.*"))
	if len(matches) != 0 {
		t.Fatalf("private index droppings written despite flatten: %v", matches)
	}
	// Readers must report serving from the global index.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		rd, err := r.m.OpenReader(ctx, "flat")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if !rd.Stats.UsedGlobal {
			t.Error("reader did not use the global index")
		}
		verifyN1(t, rd, n, 3, 128)
		rd.Close()
	})
}

func TestFlattenOverflowFallsBack(t *testing.T) {
	const n = 4
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.IndexFlatten, FlattenThreshold: 2, NumSubdirs: 2})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, 5, 64, "big") // 5 entries > threshold 2
	})
	if _, err := os.Stat(filepath.Join(r.roots[0], "big", "meta", "global.index")); err == nil {
		t.Fatal("global index written despite overflow")
	}
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		rd, err := r.m.OpenReader(ctx, "big")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if rd.Stats.UsedGlobal {
			t.Error("claims global index after overflow")
		}
		if rd.Stats.Mode != plfs.ParallelIndexRead {
			t.Errorf("fallback mode = %v", rd.Stats.Mode)
		}
		verifyN1(t, rd, n, 5, 64)
		rd.Close()
	})
}

func TestContainerLayoutOnDisk(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	runRanks(t, r, 4, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, 4, 2, 64, "file1")
	})
	// All 4 ranks share host 0 (4 ranks per fake host), so exactly one
	// hostdir is created lazily.
	c := filepath.Join(r.roots[0], "file1")
	for _, p := range []string{".plfsaccess", "meta", "openhosts", "hostdir.0"} {
		if _, err := os.Stat(filepath.Join(c, p)); err != nil {
			t.Errorf("container piece %s missing: %v", p, err)
		}
	}
	if hd, _ := filepath.Glob(filepath.Join(c, "hostdir.*")); len(hd) != 1 {
		t.Fatalf("hostdirs = %v, want exactly one (one host)", hd)
	}
	data, _ := filepath.Glob(filepath.Join(c, "hostdir.*", "dropping.data.*"))
	idx, _ := filepath.Glob(filepath.Join(c, "hostdir.*", "dropping.index.*"))
	if len(data) != 4 || len(idx) != 4 {
		t.Fatalf("droppings: %d data, %d index, want 4 each", len(data), len(idx))
	}
	// openhosts must be empty after closes.
	ents, _ := os.ReadDir(filepath.Join(c, "openhosts"))
	if len(ents) != 0 {
		t.Fatalf("openhosts not cleaned: %v", ents)
	}
}

func TestStatAndReadDir(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	const n, blocks, bs = 4, 3, int64(100)
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "ck")
	})
	ctx := r.ctx(0, nil)
	fi, err := r.m.Stat(ctx, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != int64(n*blocks)*bs {
		t.Fatalf("stat size = %d, want %d", fi.Size, int64(n*blocks)*bs)
	}
	if fi.Dir {
		t.Fatal("container statted as directory")
	}
	ents, err := r.m.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "ck" || ents[0].Dir {
		t.Fatalf("readdir = %+v", ents)
	}
	ok, err := r.m.IsContainer(ctx, "ck")
	if err != nil || !ok {
		t.Fatalf("IsContainer = %v, %v", ok, err)
	}
}

func TestUnlinkRemovesEverything(t *testing.T) {
	r := newRig(t, 3, plfs.Options{
		IndexMode: plfs.Original, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true,
	})
	runRanks(t, r, 4, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, 4, 2, 64, "gone")
	})
	ctx := r.ctx(0, nil)
	if ok, _ := r.m.IsContainer(ctx, "gone"); !ok {
		t.Fatal("container not created")
	}
	if err := r.m.Unlink(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.m.IsContainer(ctx, "gone"); ok {
		t.Fatal("container survives unlink")
	}
	for _, root := range r.roots {
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("volume %s not empty after unlink: %v", root, ents)
		}
	}
}

func TestSpreadSubdirsPlacesShadowContainers(t *testing.T) {
	const vols = 3
	r := newRig(t, vols, plfs.Options{
		IndexMode: plfs.Original, NumSubdirs: vols, SpreadSubdirs: true,
	})
	runRanks(t, r, 6, func(ctx plfs.Ctx, rank int) {
		// Hosts 0 and 1 (ranks 0-3 on host 0, 4-5 on host 1) -> two hostdirs.
		writeN1(t, r.m, ctx, rank, 6, 2, 64, "spread")
	})
	// hostdir.i lives on volume (0+i)%vols; hostdir.0 is canonical.
	foundShadow := false
	for v := 1; v < vols; v++ {
		if matches, _ := filepath.Glob(filepath.Join(r.roots[v], "spread", "hostdir.*")); len(matches) > 0 {
			foundShadow = true
		}
	}
	if !foundShadow {
		t.Fatal("no shadow hostdirs on non-canonical volumes")
	}
	// Metalink markers must exist in the canonical container.
	ml, _ := filepath.Glob(filepath.Join(r.roots[0], "spread", "hostdir.*.metalink"))
	if len(ml) == 0 {
		t.Fatal("no metalink markers in canonical container")
	}
	// And readers must still find everything.
	runRanks(t, r, 6, func(ctx plfs.Ctx, rank int) {
		rd, err := r.m.OpenReader(ctx, "spread")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		verifyN1(t, rd, 6, 2, 64)
		rd.Close()
	})
}

func TestSpreadContainersHashAcrossVolumes(t *testing.T) {
	const vols = 4
	r := newRig(t, vols, plfs.Options{IndexMode: plfs.Original, SpreadContainers: true})
	runRanks(t, r, 1, func(ctx plfs.Ctx, rank int) {
		for i := 0; i < 16; i++ {
			writeN1(t, r.m, ctx, 0, 1, 1, 64, fmt.Sprintf("f%d", i))
		}
	})
	used := 0
	for _, root := range r.roots {
		ents, _ := os.ReadDir(root)
		if len(ents) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("16 containers landed on %d volume(s); hashing broken", used)
	}
	// ReadDir of the mount root must union all volumes.
	ents, err := r.m.ReadDir(r.ctx(0, nil), "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 16 {
		t.Fatalf("readdir found %d containers, want 16", len(ents))
	}
}

func TestOverwriteLastWriterWins(t *testing.T) {
	// Sequential overwrites through separate serial writers: the second
	// write (later timestamp) must win.
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w1, err := r.m.Create(ctx, "ow")
	if err != nil {
		t.Fatal(err)
	}
	w1.Write(0, payload.FromBytes(bytes.Repeat([]byte{'a'}, 100)))
	w1.Close()
	ctx2 := r.ctx(1, nil)
	w2, err := r.m.Create(ctx2, "ow")
	if err != nil {
		t.Fatal(err)
	}
	w2.Write(50, payload.FromBytes(bytes.Repeat([]byte{'B'}, 10)))
	w2.Close()
	rd, err := r.m.OpenReader(ctx, "ow")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, _ := rd.ReadAt(45, 20)
	want := append(bytes.Repeat([]byte{'a'}, 5), bytes.Repeat([]byte{'B'}, 10)...)
	want = append(want, bytes.Repeat([]byte{'a'}, 5)...)
	if !bytes.Equal(got.Materialize(), want) {
		t.Fatalf("got %q, want %q", got.Materialize(), want)
	}
}

func TestWriterSyncFlushes(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(0, payload.FromBytes([]byte("buffered")))
	// Before sync, the data dropping is empty as seen from outside: the
	// store holds a small append back (DESIGN.md §16.1).
	dd, _ := filepath.Glob(filepath.Join(r.roots[0], "s", "hostdir.*", "dropping.data.*"))
	if len(dd) != 1 {
		t.Fatalf("droppings: %v", dd)
	}
	fi, _ := os.Stat(dd[0])
	if fi.Size() != 0 {
		t.Fatal("data flushed before Sync")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, _ = os.Stat(dd[0])
	if fi.Size() != 8 {
		t.Fatalf("after Sync size = %d", fi.Size())
	}
	w.Close()
}

// TestRandomPatternsMatchOracle is the POSIX-equivalence property test:
// arbitrary concurrent-rank write patterns (assigned non-overlapping per
// round, like real checkpoints) must read back exactly like an in-memory
// byte array written in timestamp order.
func TestRandomPatternsMatchOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		mode := modes()[rng.Intn(3)]
		r := newRig(t, 1+rng.Intn(3), plfs.Options{
			IndexMode:        mode,
			NumSubdirs:       1 + rng.Intn(4),
			SpreadContainers: rng.Intn(2) == 0,
			SpreadSubdirs:    rng.Intn(2) == 0,
		})
		// Precompute per-rank write plans (disjoint across ranks).
		const fileMax = 1 << 14
		type wr struct {
			off int64
			b   []byte
		}
		plans := make([][]wr, n)
		oracle := make([]byte, fileMax)
		var size int64
		blockSize := int64(64 + rng.Intn(192))
		nBlocks := fileMax / int(blockSize)
		perm := rng.Perm(nBlocks)
		k := 0
		for ri := 0; ri < n; ri++ {
			for j := 0; j < 1+rng.Intn(8) && k < len(perm); j++ {
				off := int64(perm[k]) * blockSize
				k++
				b := make([]byte, blockSize)
				rng.Read(b)
				plans[ri] = append(plans[ri], wr{off, b})
				copy(oracle[off:], b)
				if off+blockSize > size {
					size = off + blockSize
				}
			}
		}
		okAll := true
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			w, err := r.m.Create(ctx, "prop")
			if err != nil {
				t.Error(err)
				okAll = false
				return
			}
			for _, p := range plans[rank] {
				if err := w.Write(p.off, payload.FromBytes(p.b)); err != nil {
					t.Error(err)
					okAll = false
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
				okAll = false
				return
			}
			rd, err := r.m.OpenReader(ctx, "prop")
			if err != nil {
				t.Error(err)
				okAll = false
				return
			}
			defer rd.Close()
			if rd.Size() != size {
				t.Errorf("size %d want %d", rd.Size(), size)
				okAll = false
			}
			got, err := rd.ReadAt(0, size)
			if err != nil {
				t.Error(err)
				okAll = false
				return
			}
			if !bytes.Equal(got.Materialize(), oracle[:size]) {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	r := newRig(t, 1, plfs.Options{})
	if _, err := r.m.OpenReader(r.ctx(0, nil), "nope"); err == nil {
		t.Fatal("open of missing container succeeded")
	}
	if _, err := r.m.Stat(r.ctx(0, nil), "nope"); err == nil {
		t.Fatal("stat of missing container succeeded")
	}
}

func TestMkdirAndNestedContainers(t *testing.T) {
	r := newRig(t, 2, plfs.Options{IndexMode: plfs.Original, SpreadContainers: true})
	ctx := r.ctx(0, nil)
	if err := r.m.Mkdir(ctx, "sub/dir"); err == nil {
		t.Fatal("mkdir of nested path without parent succeeded")
	}
	if err := r.m.Mkdir(ctx, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Mkdir(ctx, "sub/dir"); err != nil {
		t.Fatal(err)
	}
	writeN1(t, r.m, ctx, 0, 1, 2, 64, "sub/dir/ck")
	rd, err := r.m.OpenReader(ctx, "sub/dir/ck")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	verifyN1(t, rd, 1, 2, 64)
	ents, err := r.m.ReadDir(ctx, "sub/dir")
	if err != nil || len(ents) != 1 || ents[0].Name != "ck" {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
}
