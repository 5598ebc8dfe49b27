package plfs_test

import (
	"runtime"
	"testing"
	"unsafe"

	"plfs/internal/mpi"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// TestParallelOpenBuildsOnce: the ranks of a collective Parallel Index
// Read open share one built index, and what the open allocates per rank
// does not grow with the job — only the rank that builds lays out the
// job-sized shard and path tables, so the total is O(N), not O(N²).
func TestParallelOpenBuildsOnce(t *testing.T) {
	openAllocPerRank := func(n int) float64 {
		r := newRig(t, 1, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			writeN1(t, r.m, ctx, rank, n, 1, 64, "ckpt")
		})
		built := make([]*plfs.Index, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			rd, err := r.m.OpenReader(ctx, "ckpt")
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			built[rank] = rd.Index()
			rd.Close()
		})
		runtime.ReadMemStats(&after)
		for rank, ix := range built {
			if ix == nil || ix != built[0] {
				t.Fatalf("%d ranks: rank %d holds index %p, rank 0 holds %p: BuildIndexRecs ran more than once", n, rank, ix, built[0])
			}
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := openAllocPerRank(128), openAllocPerRank(512)
	t.Logf("open allocates %.0f B/rank at 128 ranks, %.0f B/rank at 512", small, large)
	if large > 1.5*small {
		t.Errorf("open allocates %.0f B/rank at 512 ranks against %.0f at 128: per-rank cost grows with the job", large, small)
	}
}

// TestOriginalOpenDecodesOnce: on the simulator, the ranks of a
// collective Original open read every index dropping each, but decode
// each one once between them, and share one built index.  Decoding per
// rank would allocate at least one decoded shard per rank and shard.
func TestOriginalOpenDecodesOnce(t *testing.T) {
	const n, blocks, bs, ppn = 16, 512, int64(4 << 10), 4
	eng := sim.NewEngine(1)
	fs := pfs.New(eng, pfs.SmallCluster())
	m := plfs.NewMount([]string{fs.VolumeRoot(0)}, plfs.Options{IndexMode: plfs.Original, NoRunCompression: true})
	world := mpi.NewWorld(eng, n, ppn, mpi.DefaultNet())
	built := make([]*plfs.Index, n)
	var before, after runtime.MemStats
	world.SpawnAll(func(r *mpi.Rank) {
		ctx := simfs.Ctx(fs, r.Node(), r.Proc(), r.Rank(), ppn)
		ctx.Comm = r.Comm()
		w, err := m.Create(ctx, "ckpt")
		if err != nil {
			t.Errorf("rank %d create: %v", r.Rank(), err)
			return
		}
		for k := 0; k < blocks; k++ {
			off := int64(k*n+r.Rank()) * bs
			if err := w.Write(off, payload.Synthetic(uint64(r.Rank()+1), off, bs)); err != nil {
				t.Errorf("rank %d write: %v", r.Rank(), err)
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("rank %d close: %v", r.Rank(), err)
		}
		ctx.Comm.Barrier()
		if r.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		rd, err := m.OpenReader(ctx, "ckpt")
		if err != nil {
			t.Errorf("rank %d open: %v", r.Rank(), err)
			return
		}
		if rd.Stats.IndexReads != n {
			t.Errorf("rank %d read %d index droppings, want %d", r.Rank(), rd.Stats.IndexReads, n)
		}
		built[r.Rank()] = rd.Index()
		ctx.Comm.Barrier()
		if r.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		rd.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, ix := range built {
		if ix == nil || ix != built[0] {
			t.Fatalf("rank %d holds index %p, rank 0 holds %p", rank, ix, built[0])
		}
	}
	shard := float64(blocks * unsafe.Sizeof(plfs.Rec{}))
	perReadShard := float64(after.TotalAlloc-before.TotalAlloc) / (n * n)
	t.Logf("open allocates %.0f B per rank and shard; one decoded shard is %.0f B", perReadShard, shard)
	if perReadShard > shard/4 {
		t.Errorf("open allocates %.0f B per rank and shard read, against %.0f B per decoded shard: ranks decode shards of their own", perReadShard, shard)
	}
}
