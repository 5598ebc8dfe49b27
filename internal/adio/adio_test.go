package adio_test

import (
	"fmt"
	"sync"
	"testing"

	"plfs/internal/adio"
	"plfs/internal/localcomm"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

func runRanks(t *testing.T, n int, fn func(ctx plfs.Ctx, rank int)) {
	t.Helper()
	comms := localcomm.New(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(plfs.Ctx{
				Vols:       []plfs.Backend{osfs.New()},
				Rank:       i,
				Host:       i / 2,
				HostLeader: i%2 == 0,
				Comm:       comms[i],
			}, i)
		}(i)
	}
	wg.Wait()
}

func TestUFSWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		drv := adio.UFS{Vol: 0}
		f, err := drv.Open(ctx, dir+"/shared", adio.WriteCreate, adio.Hints{})
		if err != nil {
			t.Errorf("rank %d open: %v", rank, err)
			return
		}
		data := []byte(fmt.Sprintf("rank-%d-data", rank))
		if err := f.WriteAt(int64(rank)*64, payload.FromBytes(data)); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		r, err := drv.Open(ctx, dir+"/shared", adio.ReadOnly, adio.Hints{})
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("rank-%d-data", i)
			got, err := r.ReadAt(int64(i)*64, int64(len(want)))
			if err != nil {
				t.Error(err)
				continue
			}
			if string(got.Materialize()) != want {
				t.Errorf("slot %d = %q", i, got.Materialize())
			}
		}
	})
}

// TestUFSWriteCreateReopens checks MPI_MODE_CREATE semantics on the
// direct driver: a second write open of an existing file, collective or
// serial, opens it and keeps the bytes the new session does not
// overwrite.
func TestUFSWriteCreateReopens(t *testing.T) {
	dir := t.TempDir()
	const n = 2
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		serial := ctx
		serial.Comm = nil
		for _, c := range []struct {
			ctx  plfs.Ctx
			path string
		}{{ctx, dir + "/shared"}, {serial, fmt.Sprintf("%s/own.%d", dir, rank)}} {
			for round, data := range []string{"aaaa", "bb"} {
				f, err := adio.UFS{}.Open(c.ctx, c.path, adio.WriteCreate, adio.Hints{})
				if err != nil {
					t.Errorf("rank %d round %d open: %v", rank, round, err)
					return
				}
				if err := f.WriteAt(int64(rank)*8, payload.FromBytes([]byte(data))); err != nil {
					t.Error(err)
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			}
			r, err := adio.UFS{}.Open(c.ctx, c.path, adio.ReadOnly, adio.Hints{})
			if err != nil {
				t.Error(err)
				return
			}
			got, err := r.ReadAt(int64(rank)*8, 4)
			if err != nil || string(got.Materialize()) != "bbaa" {
				t.Errorf("rank %d %s = %q, %v; want \"bbaa\"", rank, c.path, got.Materialize(), err)
			}
			r.Close()
		}
	})
}

func TestUFSReadOnlyRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		drv := adio.UFS{}
		f, _ := drv.Open(ctx, dir+"/f", adio.WriteCreate, adio.Hints{})
		f.WriteAt(0, payload.FromBytes([]byte("x")))
		f.Close()
		r, _ := drv.Open(ctx, dir+"/f", adio.ReadOnly, adio.Hints{})
		defer r.Close()
		if err := r.WriteAt(0, payload.FromBytes([]byte("y"))); err == nil {
			t.Error("read-only file accepted a write")
		}
	})
}

func TestPLFSDriverRoundtrip(t *testing.T) {
	mount := plfs.NewMount([]string{t.TempDir()}, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 2})
	const n, bs = 6, int64(1024)
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		drv := adio.PLFS{Mount: mount}
		f, err := drv.Open(ctx, "ckpt", adio.WriteCreate, adio.Hints{})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		off := int64(rank) * bs
		if err := f.WriteAt(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
			t.Error(err)
		}
		// PLFS write handles must reject reads (no read-write mode).
		if _, err := f.ReadAt(0, 1); err == nil {
			t.Error("PLFS write handle accepted a read")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		r, err := drv.Open(ctx, "ckpt", adio.ReadOnly, adio.Hints{})
		if err != nil {
			t.Errorf("read open: %v", err)
			return
		}
		defer r.Close()
		if r.Size() != n*bs {
			t.Errorf("size = %d", r.Size())
		}
		got, err := r.ReadAt(0, n*bs)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			o := int64(i) * bs
			if !payload.ContentEqual(got.Slice(o, bs), payload.List{payload.Synthetic(uint64(i+1), o, bs)}) {
				t.Errorf("slot %d mismatch", i)
			}
		}
	})
}

func TestCollectiveBufferingCorrectness(t *testing.T) {
	// 8 ranks, 2 per "node": tiny strided collective writes through CB
	// must land exactly where independent writes would, and collective
	// reads must return them.
	dir := t.TempDir()
	const n = 8
	const rounds = 16
	const bs = int64(1 << 10) // 1 KiB strided ops, like LANL 3
	hints := adio.Hints{CollectiveBuffering: true, ProcsPerNode: 2}
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		drv := adio.UFS{}
		f, err := drv.Open(ctx, dir+"/cb", adio.WriteCreate, hints)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for k := 0; k < rounds; k++ {
			off := int64(k*n+rank) * bs
			if err := f.WriteAtAll(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
				t.Error(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		// Collective read back through CB.
		r, err := drv.Open(ctx, dir+"/cb", adio.ReadOnly, hints)
		if err != nil {
			t.Errorf("read open: %v", err)
			return
		}
		defer r.Close()
		for k := 0; k < rounds; k++ {
			off := int64(k*n+rank) * bs
			got, err := r.ReadAtAll(off, bs)
			if err != nil {
				t.Error(err)
				return
			}
			if !payload.ContentEqual(got, payload.List{payload.Synthetic(uint64(rank+1), off, bs)}) {
				t.Errorf("rank %d round %d CB read mismatch", rank, k)
				return
			}
		}
	})
	// Verify the final file byte-for-byte with a plain reader.
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		r, err := adio.UFS{}.Open(ctx, dir+"/cb", adio.ReadOnly, adio.Hints{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		total := int64(rounds*n) * bs
		got, err := r.ReadAt(0, total)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < rounds; k++ {
			for i := 0; i < n; i++ {
				off := int64(k*n+i) * bs
				want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
				if !payload.ContentEqual(got.Slice(off, bs), want) {
					t.Fatalf("final file wrong at (k=%d, rank=%d)", k, i)
				}
			}
		}
	})
}

func TestCollectiveBufferingThroughPLFS(t *testing.T) {
	// The paper runs LANL 3 with collective buffering *through PLFS*; the
	// stack must compose.
	mount := plfs.NewMount([]string{t.TempDir()}, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 2})
	const n, rounds, bs = 4, 8, int64(512)
	hints := adio.Hints{CollectiveBuffering: true, ProcsPerNode: 2}
	runRanks(t, n, func(ctx plfs.Ctx, rank int) {
		drv := adio.PLFS{Mount: mount}
		f, err := drv.Open(ctx, "lanl3", adio.WriteCreate, hints)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for k := 0; k < rounds; k++ {
			off := int64(k*n+rank) * bs
			if err := f.WriteAtAll(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
				t.Error(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		r, err := drv.Open(ctx, "lanl3", adio.ReadOnly, hints)
		if err != nil {
			t.Errorf("read open: %v", err)
			return
		}
		defer r.Close()
		for k := 0; k < rounds; k++ {
			off := int64(k*n+rank) * bs
			got, err := r.ReadAtAll(off, bs)
			if err != nil {
				t.Error(err)
				return
			}
			if !payload.ContentEqual(got, payload.List{payload.Synthetic(uint64(rank+1), off, bs)}) {
				t.Errorf("rank %d round %d mismatch", rank, k)
				return
			}
		}
	})
}

func TestHintsDefaults(t *testing.T) {
	// Zero-valued hints must not enable CB and must be safe on size-1 comms.
	mount := plfs.NewMount([]string{t.TempDir()}, plfs.Options{})
	runRanks(t, 1, func(ctx plfs.Ctx, rank int) {
		f, err := adio.PLFS{Mount: mount}.Open(ctx, "x", adio.WriteCreate,
			adio.Hints{CollectiveBuffering: true}) // size-1 comm: CB skipped
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(0, payload.FromBytes([]byte("ok"))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
