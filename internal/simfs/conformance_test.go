package simfs_test

import (
	"testing"

	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/plfs/backendtest"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// TestBackendConformance runs the DESIGN.md §16 contract suite over the
// simulated POSIX cluster, bare and behind each interposer stack.  Each
// check runs on its own engine from a discrete-event process, which is
// why the suite reports with Errorf only — FailNow must not fire off the
// test goroutine.
func TestBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T, fn func(plfs.Backend, string)) {
		eng := sim.NewEngine(1)
		fs := pfs.New(eng, pfs.SmallCluster())
		err := eng.RunProcs(func(p *sim.Proc) {
			fn(simfs.Ctx(fs, 0, p, 0, 1).Vols[0], fs.VolumeRoot(0))
		})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
	})
}
