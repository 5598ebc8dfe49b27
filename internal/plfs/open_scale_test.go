package plfs_test

import (
	"runtime"
	"testing"

	"plfs/internal/plfs"
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
