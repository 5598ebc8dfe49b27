package harness_test

import (
	"runtime/metrics"
	"testing"

	"plfs/internal/adio"
	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// forcedGCs reads how many collections the process has forced so far
// (runtime.GC, debug.FreeOSMemory).
func forcedGCs() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestRunForcesNoCollection: a large job forces no collection inside
// Run; only Figure.run returns a large run's heap, between the runs it
// admits, so the next job in the process keeps the GC pacer's goal and
// the goroutine stack-size estimate.
func TestRunForcesNoCollection(t *testing.T) {
	cfg := pfs.Cielo()
	cfg.Volumes = 1
	j := harness.Job{
		Seed: 1, Ranks: 4096, Cfg: cfg, Net: mpi.DefaultNet(),
		Opt:      plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32},
		Hints:    adio.Hints{ProcsPerNode: cfg.ProcsPerNode},
		Kernel:   workloads.NNFiles{BytesPerRank: 64 << 10, OpSize: 64 << 10},
		ReadBack: true, Verify: true, DropCaches: true,
	}
	before := forcedGCs()
	if _, err := harness.Run(j); err != nil {
		t.Fatal(err)
	}
	if n := forcedGCs() - before; n != 0 {
		t.Errorf("a 4,096-rank direct N-N job forced %d collections, want 0", n)
	}
}
