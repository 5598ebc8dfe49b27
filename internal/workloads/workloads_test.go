package workloads_test

import (
	"fmt"
	"testing"

	"plfs/internal/adio"
	"plfs/internal/mpi"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
	"plfs/internal/workloads"
)

// kcase is one row of the kernel table: a kernel as harness.Figures(),
// plfsrun, bench/ and examples/ build it, at test sizes.
type kcase struct {
	label string // golden and subtest name when k.Name() is taken
	k     workloads.Kernel
	hints adio.Hints
	meta  bool // metadata only: opens and closes, no bytes, no read-back
}

func (c kcase) name() string {
	if c.label != "" {
		return c.label
	}
	return c.k.Name()
}

// kernelTable lists every kernel the repository builds, at a job of
// ranks ranks.  TestAllKernelsVerifyOnBothDrivers and
// TestKernelOpStreams both walk it.
func kernelTable(ranks int) []kcase {
	cb := adio.Hints{CollectiveBuffering: true, ProcsPerNode: 4}
	cases := []kcase{
		{k: workloads.MPIIOTest(400<<10, 50<<10)},
		{k: workloads.IOR(512<<10, 128<<10)},
		{k: workloads.LANL1(1 << 20)},
		{k: workloads.LANL2(64 << 10)},
		{k: workloads.LANL3(int64(ranks)*(2<<20), ranks), hints: cb},
		{k: workloads.Madbench{Matrices: 3, MatrixBytes: 128 << 10}},
		{label: "madbench-shortop", k: workloads.Madbench{Matrices: 2, MatrixBytes: 128 << 10, OpSize: 48 << 10}},
		{k: workloads.Pixie3D{BytesPerRank: 256 << 10, Vars: 8}},
		{label: "pixie3d-12vars", k: workloads.Pixie3D{BytesPerRank: 96 << 10, Vars: 12}},
		{k: workloads.Aramco{TotalBytes: 2 << 20}},
		{k: workloads.RestartN1(1<<20, 64<<10)},
		{k: workloads.ReopenN1(256<<10, 64<<10, 3)},
		{k: workloads.NNFiles{BytesPerRank: 256 << 10, OpSize: 64 << 10}},
		{k: workloads.CreateStorm{FilesPerRank: 3}, meta: true},
		{k: workloads.CreateStorm100k{Containers: 2, Rounds: 2}, meta: true},
		{k: workloads.Brownout{Steps: 3, OpsPerRank: 2, OpSize: 32 << 10}},
		{k: workloads.Saturation{Containers: 2, OpsPerRank: 2, OpSize: 32 << 10}},
	}
	for _, a := range []workloads.Access{workloads.AccessContig, workloads.AccessStrided, workloads.AccessIrregular} {
		for _, mem := range []bool{true, false} {
			cases = append(cases, kcase{k: workloads.Noncontig{
				Access: a, BlockSize: 4 << 10, BlocksPerRank: 4, Steps: 2, MemContig: mem, Seed: 3,
			}})
		}
	}
	return cases
}

// runKernel executes a kernel on a fresh simulated cluster and returns
// rank 0's Result (identical on all ranks: phases are barrier-bracketed).
func runKernel(t *testing.T, k workloads.Kernel, ranks int, driver string, hints adio.Hints, readBack bool) workloads.Result {
	t.Helper()
	res, errs := runRecorded(t, k, ranks, driver, hints, readBack, nil)
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	return res
}

// runRecorded is runKernel returning each rank's error, with every
// rank's calls recorded into log when it is non-nil.  Caches are dropped
// between write and read-back, as the harness does, and Env.Step is set,
// so stepped kernels run their hooks.
func runRecorded(t *testing.T, k workloads.Kernel, ranks int, driver string, hints adio.Hints, readBack bool, log *opLog) (workloads.Result, []error) {
	t.Helper()
	eng := sim.NewEngine(11)
	cfg := pfs.SmallCluster()
	cfg.JitterFrac = 0
	cfg.Volumes = 2
	fs := pfs.New(eng, cfg)
	world := mpi.NewWorld(eng, ranks, cfg.ProcsPerNode, mpi.DefaultNet())
	roots := make([]string, fs.Volumes())
	for i := range roots {
		roots[i] = fs.VolumeRoot(i)
	}
	mount := plfs.NewMount(roots, plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true,
	})
	var res workloads.Result
	errs := make([]error, ranks)
	world.SpawnAll(func(r *mpi.Rank) {
		ctx := simfs.Ctx(fs, r.Node(), r.Proc(), r.Rank(), cfg.ProcsPerNode)
		ctx.Comm = r.Comm()
		var drv adio.Driver
		if driver == "plfs" {
			drv = adio.PLFS{Mount: mount}
		} else {
			drv = adio.UFS{}
		}
		path := k.Name()
		if driver != "plfs" {
			path = "/vol0/" + path
		}
		env := &workloads.Env{Ctx: ctx, Driver: drv, Hints: hints, Path: path, Verify: true}
		if log != nil {
			log.attach(env, r.Rank(), func() {
				fs.DropCaches()
				mount.DropIndexCache()
			})
		}
		out, err := k.Run(env, readBack)
		if log != nil {
			log.result(r.Rank(), out, err)
		}
		errs[r.Rank()] = err
		if r.Rank() == 0 {
			res = out
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return res, errs
}

// TestAllKernelsVerifyOnBothDrivers runs every kernel of the table with
// read-back and verification on, through PLFS and directly.
func TestAllKernelsVerifyOnBothDrivers(t *testing.T) {
	const ranks = 8
	for _, c := range kernelTable(ranks) {
		for _, drv := range []string{"plfs", "ufs"} {
			c, drv := c, drv
			t.Run(fmt.Sprintf("%s/%s", c.name(), drv), func(t *testing.T) {
				res := runKernel(t, c.k, ranks, drv, c.hints, true)
				if c.meta {
					if res.WriteOpen <= 0 || res.WriteClose <= 0 || res.BytesPerRank != 0 || res.ReadTotal() != 0 {
						t.Fatalf("metadata kernel mistimed: %+v", res)
					}
					return
				}
				if res.BytesPerRank == 0 {
					t.Fatal("no bytes accounted")
				}
				if res.Write <= 0 || res.Read <= 0 {
					t.Fatalf("phases not timed: %+v", res)
				}
				if res.ReadBW(ranks) <= 0 || res.WriteBW(ranks) <= 0 {
					t.Fatalf("bandwidths not computed: %+v", res)
				}
			})
		}
	}
}

// TestNonPositiveOpSizeFails checks that a kernel whose op size is not
// positive fails on every rank, before any collective, instead of
// dividing by zero.
func TestNonPositiveOpSizeFails(t *testing.T) {
	for _, k := range []workloads.Kernel{
		workloads.MPIIOTest(1<<20, 0),
		workloads.IOR(1<<20, 0),
		workloads.RestartN1(1<<20, -4),
		workloads.ReopenN1(1<<20, 0, 2),
		workloads.NNFiles{BytesPerRank: 1 << 20},
		workloads.Madbench{Matrices: 2},
		workloads.Noncontig{Access: workloads.AccessStrided, BlocksPerRank: 4, Steps: 2},
		workloads.Brownout{Steps: 2, OpsPerRank: 2},
		workloads.Saturation{Containers: 2, OpsPerRank: 2},
	} {
		_, errs := runRecorded(t, k, 4, "plfs", adio.Hints{}, true, nil)
		for r, err := range errs {
			if err == nil {
				t.Errorf("%s: rank %d ran", k.Name(), r)
			}
		}
	}
}

// TestNoncontigQuadrantsVerify runs the four-quadrant taxonomy (file
// contiguity × memory contiguity) through every I/O method on both
// drivers with verification on: whatever path the method takes — per-op
// naive, locked sieve RMW over neighbours' in-flight data, one vectored
// list call, or two-phase redistribution — the bytes that come back must
// be the bytes each rank wrote.
func TestNoncontigQuadrantsVerify(t *testing.T) {
	const ranks = 4
	for _, access := range []workloads.Access{workloads.AccessContig, workloads.AccessStrided, workloads.AccessIrregular} {
		for _, mem := range []bool{true, false} {
			for _, m := range []adio.IOMethod{adio.MethodNaive, adio.MethodSieve, adio.MethodList, adio.MethodTwoPhase} {
				for _, drv := range []string{"ufs", "plfs"} {
					access, mem, m, drv := access, mem, m, drv
					t.Run(fmt.Sprintf("%s/mem=%v/%s/%s", access, mem, m, drv), func(t *testing.T) {
						k := workloads.Noncontig{
							Access: access, BlockSize: 1 << 10, BlocksPerRank: 6,
							Steps: 2, MemContig: mem, Seed: 3,
						}
						res := runKernel(t, k, ranks, drv, adio.Hints{IOMethod: m, ProcsPerNode: 4}, true)
						if want := int64(6*2) << 10; res.BytesPerRank != want {
							t.Fatalf("bytes per rank = %d, want %d", res.BytesPerRank, want)
						}
					})
				}
			}
		}
	}
}

func TestParseAccess(t *testing.T) {
	for _, s := range []string{"contig", "strided", "irregular"} {
		a, err := workloads.ParseAccess(s)
		if err != nil || a.String() != s {
			t.Fatalf("ParseAccess(%q) = %v, %v", s, a, err)
		}
	}
	if _, err := workloads.ParseAccess("random"); err == nil {
		t.Fatal("ParseAccess accepted garbage")
	}
}

func TestLANL3WithCollectiveBuffering(t *testing.T) {
	const ranks = 8
	hints := adio.Hints{CollectiveBuffering: true, ProcsPerNode: 4}
	for _, drv := range []string{"plfs", "ufs"} {
		drv := drv
		t.Run(drv, func(t *testing.T) {
			res := runKernel(t, workloads.LANL3(32<<20, ranks), ranks, drv, hints, true)
			if res.BytesPerRank != 4<<20 {
				t.Fatalf("bytes per rank = %d", res.BytesPerRank)
			}
		})
	}
}

func TestCreateStormTimesOpensAndCloses(t *testing.T) {
	res := runKernel(t, workloads.CreateStorm{FilesPerRank: 4}, 8, "plfs", adio.Hints{}, false)
	if res.WriteOpen <= 0 || res.WriteClose <= 0 {
		t.Fatalf("storm not timed: %+v", res)
	}
	if res.Read != 0 || res.ReadOpen != 0 {
		t.Fatalf("storm should not read: %+v", res)
	}
}

// TestEffectiveBandwidthDefinition checks the §IV note-2 semantics: the
// effective read bandwidth denominator includes open and close time.
func TestEffectiveBandwidthDefinition(t *testing.T) {
	res := workloads.Result{
		ReadOpen: 1e9, Read: 2e9, ReadClose: 1e9, BytesPerRank: 100,
	}
	if got := res.ReadBW(4); got != 100.0 {
		t.Fatalf("effective read bw = %v, want 100 B/s (400 bytes / 4 s)", got)
	}
	if res.ReadTotal().Seconds() != 4 {
		t.Fatalf("read total = %v", res.ReadTotal())
	}
}

// TestStrongVsWeakScalingVolumes checks the scaling semantics the paper
// relies on: ARAMCO and LANL3 are strong scaling (per-rank bytes shrink
// with N); MPI-IO Test, Pixie3D, and LANL1 are weak scaling (constant per
// rank).
func TestStrongVsWeakScalingVolumes(t *testing.T) {
	a4 := runKernel(t, workloads.Aramco{TotalBytes: 64 << 20}, 4, "plfs", adio.Hints{}, false)
	a8 := runKernel(t, workloads.Aramco{TotalBytes: 64 << 20}, 8, "plfs", adio.Hints{}, false)
	if a8.BytesPerRank*2 != a4.BytesPerRank {
		t.Fatalf("aramco not strong scaling: %d vs %d", a4.BytesPerRank, a8.BytesPerRank)
	}
	w4 := runKernel(t, workloads.MPIIOTest(256<<10, 64<<10), 4, "plfs", adio.Hints{}, false)
	w8 := runKernel(t, workloads.MPIIOTest(256<<10, 64<<10), 8, "plfs", adio.Hints{}, false)
	if w4.BytesPerRank != w8.BytesPerRank {
		t.Fatalf("mpi-io-test not weak scaling: %d vs %d", w4.BytesPerRank, w8.BytesPerRank)
	}
}
