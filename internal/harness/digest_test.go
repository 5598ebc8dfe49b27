package harness_test

import (
	"testing"

	"plfs/internal/adio"
	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// TestEventDigests pins the engine's event count and event digest of
// small runs of both benchmark job shapes (the N-1 checkpoint and
// restart, and both halves of the N-N create pair), an Original-mode
// and an Index Flatten read open, and a brownout run.  A change that moves any event of these
// runs in time or in order, adds one or drops one, fails it; only a
// declared model change may update the table.
func TestEventDigests(t *testing.T) {
	cielo := pfs.Cielo()
	cielo.Volumes = 1
	hints := adio.Hints{ProcsPerNode: cielo.ProcsPerNode}
	nn := func(usePLFS bool) harness.Job {
		cfg, opt := cielo, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32}
		if usePLFS {
			cfg.Volumes = 10
			opt.SpreadContainers, opt.NumSubdirs = true, 4
		}
		return harness.Job{
			Seed: 1, Ranks: 64, Cfg: cfg, Net: mpi.DefaultNet(), Opt: opt, Hints: hints,
			Kernel:  workloads.NNFiles{BytesPerRank: 64 << 10, OpSize: 64 << 10},
			UsePLFS: usePLFS, ReadBack: true, Verify: true, DropCaches: true,
		}
	}
	brownout, _ := harness.Brownout(workloads.Brownout{Steps: 6, OpsPerRank: 4, OpSize: 64 << 10}, 4, 0, 256, 2, 4, plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true, HedgedReads: true, IndexReplicas: 2,
	})
	brownout.Seed = 1
	for _, c := range []struct {
		name           string
		job            harness.Job
		events, digest uint64
	}{
		{"n1_restart", harness.Job{
			Seed: 1, Ranks: 64, Cfg: cielo, Net: mpi.DefaultNet(), Hints: hints,
			Opt:    plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32},
			Kernel: workloads.MPIIOTest(256<<10, 64<<10), UsePLFS: true,
			ReadBack: true, Verify: true, DropCaches: true,
		}, 16727, 0x9947e658d8d5ce6d},
		{"nn_create_direct", nn(false), 8481, 0x21c8126632d64b68},
		{"nn_create_plfs", nn(true), 12890, 0x2977d98f7922afc0},
		{"original_read_open", harness.Job{
			Seed: 1, Ranks: 64, Cfg: pfs.SmallCluster(),
			Opt:    plfs.Options{IndexMode: plfs.Original, NumSubdirs: 32},
			Kernel: workloads.MPIIOTest(256<<10, 64<<10), UsePLFS: true,
			ReadBack: true, Verify: true, DropCaches: true,
		}, 32807, 0xdda039a1c6ce70fb},
		{"brownout", brownout, 9156, 0x08b25c309149d301},
		{"index_flatten_read_open", harness.Job{
			Seed: 1, Ranks: 64, Cfg: pfs.SmallCluster(),
			Opt:    plfs.Options{IndexMode: plfs.IndexFlatten, NumSubdirs: 32},
			Kernel: workloads.MPIIOTest(256<<10, 64<<10), UsePLFS: true,
			ReadBack: true, Verify: true, DropCaches: true,
		}, 13836, 0x12447d93ad3e8e6b},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := harness.Run(c.job)
			if err != nil {
				t.Fatal(err)
			}
			if r.Events != c.events || r.Digest != c.digest {
				t.Errorf("%d events, digest %#016x; want %d, %#016x", r.Events, r.Digest, c.events, c.digest)
			}
		})
	}
}
