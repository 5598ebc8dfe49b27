// Package harness assembles full experiments: it builds a simulated
// cluster, an MPI world, a PLFS mount, runs a workload kernel through a
// chosen driver, repeats over seeds, and renders the mean ± stddev series
// each of the paper's evaluation figures reports.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/trace"
	"plfs/internal/workloads"
)

// Backend names for Job.Backend / Options.Backend (-backend flag).
const (
	// BackendPosix is the simulated POSIX parallel file system
	// (internal/pfs via internal/simfs) — the default.
	BackendPosix = "posix"
	// BackendObjfs is the simulated flat object store (internal/objfs):
	// no directories, conditional-PUT commits, prefix-scan listings.
	// Cfg is still consulted for Volumes (key prefixes) but the POSIX
	// cluster is not built; the store's own calibration applies.
	BackendObjfs = "objfs"
)

// Job describes one simulated run.
type Job struct {
	Seed int64
	// Backend selects the simulated store under the mount: "" or
	// BackendPosix for the POSIX cluster, BackendObjfs for the flat
	// object store.
	Backend  string
	Ranks    int
	Cfg      pfs.Config
	Net      mpi.NetConfig
	Opt      plfs.Options
	Hints    adio.Hints
	UsePLFS  bool
	Kernel   workloads.Kernel
	ReadBack bool
	Verify   bool
	// DropCaches invalidates client and server caches between the write
	// and read phases, as the kernel studies (Fig. 5) require; the
	// MPI-IO Test experiments (Fig. 4, Fig. 8a) leave caches warm, whose
	// effects the paper explicitly notes.
	DropCaches bool
	// TraceEvery, with TraceTo, samples the file system's resources at
	// the given virtual-time interval and writes the time series as CSV.
	TraceEvery time.Duration
	TraceTo    io.Writer
	// Fault, if non-nil, routes every rank's backend calls through a
	// deterministic fault injector built from the spec (one injector per
	// job, shared across ranks).  Pair with Opt.Retry to study degraded
	// storage; injected latency and backoff cost virtual time.
	Fault *fault.Spec
	// Obs, if non-nil, collects op metrics and phase spans from every
	// rank (plfsrun -metrics/-spans).  The harness rebinds the registry's
	// clock to the engine's virtual time, so span durations and latency
	// histograms report simulated seconds; see DESIGN.md §11.
	Obs *obs.Registry
}

// Run executes the job and returns the job-level result (identical on all
// ranks; rank 0's copy is returned).
func Run(j Job) (workloads.Result, error) {
	res, _, err := RunWithReport(j)
	return res, err
}

// RunWithReport also returns the simulated file system's resource-usage
// report, for bottleneck analysis.
func RunWithReport(j Job) (workloads.Result, pfs.Report, error) {
	var inj *fault.Injector
	if j.Fault != nil {
		inj = fault.New(*j.Fault)
		inj.Obs = j.Obs
	}
	c, err := newCluster(j.Seed, j.Backend, j.Cfg, j.Ranks, j.Net, inj)
	if err != nil {
		return workloads.Result{}, pfs.Report{}, err
	}
	c.bindClock(j.Obs)
	mount := plfs.NewMount(c.roots, j.Opt)
	var rec *trace.Recorder
	if j.TraceEvery > 0 && j.TraceTo != nil {
		rec = trace.NewRecorder(c.eng, j.TraceEvery)
		for _, p := range c.probes() {
			rec.Add(p.Name, p.Fn)
		}
	}
	var res workloads.Result
	c.world.SpawnAll(func(r *mpi.Rank) {
		ctx := c.ctx(r)
		ctx.Obs = j.Obs
		var drv adio.Driver
		path := j.Kernel.Name()
		if j.UsePLFS {
			drv = adio.PLFS{Mount: mount}
		} else {
			drv = adio.UFS{Vol: 0}
			path = c.roots[0] + "/" + path
		}
		env := &workloads.Env{Ctx: ctx, Driver: drv, Hints: j.Hints, Path: path, Verify: j.Verify}
		if j.DropCaches {
			env.InvalidateCaches = c.invalidator(r, mount)
		}
		out, err := j.Kernel.Run(env, j.ReadBack)
		if err != nil {
			c.fail(fmt.Errorf("rank %d: %w", r.Rank(), err))
		}
		if r.Rank() == 0 {
			res = out
		}
	})
	if rec != nil {
		if err := rec.Start(); err != nil {
			return res, c.report(), err
		}
	}
	if err := c.eng.Run(); err != nil {
		c.publish(j.Obs)
		return res, c.report(), errors.Join(c.failed, err)
	}
	if rec != nil {
		if err := rec.WriteCSV(j.TraceTo); err != nil {
			return res, c.report(), err
		}
	}
	c.publish(j.Obs)
	rep := c.report()
	// Large runs (tens of thousands of simulated processes) leave big
	// heaps behind; return the memory before the next repetition so
	// paper-scale sweeps stay within a laptop's RAM.
	if j.Ranks >= 4096 {
		debug.FreeOSMemory()
	}
	return res, rep, c.failed
}

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks process counts and volumes so the whole figure suite
	// runs in seconds (tests, `go test -bench`).
	Quick Scale = iota
	// Paper uses the paper's process counts and data sizes.
	Paper
)

// Options configure a figure reproduction.
type Options struct {
	Scale Scale
	Reps  int // repetitions (paper: 10); default 3
	// BaseSeed separates repetition seed streams.
	BaseSeed int64
	// Progress, if non-nil, receives one line per completed run.
	Progress func(string)
	// DecodeWorkers is passed through to plfs.Options.DecodeWorkers for
	// every mount the harness builds: it bounds the real-CPU worker pool
	// used for index decode and the index build.  Simulated results are
	// identical for any value; only regeneration wall-clock changes.
	DecodeWorkers int
	// Fault, if non-nil, applies the fault spec to every job the figure
	// suite runs (plfsbench -fault).
	Fault *fault.Spec
	// Retry is the PLFS retry policy applied to every mount the harness
	// builds (plfsbench -retry).
	Retry plfs.RetryPolicy
	// Obs, if non-nil, is attached to every job the figure suite runs
	// (plfsbench -metrics): one registry accumulates metrics across the
	// whole suite.
	Obs *obs.Registry
	// Backend selects the simulated store for every job the figure suite
	// runs ("" or BackendPosix, or BackendObjfs; plfsbench -backend).
	// Jobs that set their own Backend — the ablation-backend figure —
	// keep it.
	Backend string
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1000
	}
	return o
}

// run executes one job with the suite-wide fault spec applied, so every
// figure and ablation can be regenerated against degraded storage.
func (o Options) run(j Job) (workloads.Result, error) {
	j.Fault = o.Fault
	j.Obs = o.Obs
	if j.Backend == "" {
		j.Backend = o.Backend
	}
	return Run(j)
}

func (o Options) log(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// procCounts returns the x-axis for the small-cluster figures.
func (o Options) procCounts() []int {
	if o.Scale == Paper {
		return []int{16, 64, 256, 1024, 2048}
	}
	return []int{8, 16, 32, 64}
}

// kernelProcCounts returns the x-axis for the Fig. 5 kernel studies.
func (o Options) kernelProcCounts() []int {
	if o.Scale == Paper {
		return []int{48, 96, 192, 384, 768}
	}
	return []int{8, 16, 32}
}

// largeProcCounts returns the x-axis for the Cielo figures.
func (o Options) largeProcCounts() []int {
	if o.Scale == Paper {
		return []int{4096, 8192, 16384, 32768, 65536}
	}
	return []int{64, 128, 256}
}

// metaProcCounts returns the x-axis for the large metadata figures.
func (o Options) metaProcCounts() []int {
	if o.Scale == Paper {
		return []int{2048, 4096, 8192, 16384, 32768}
	}
	return []int{64, 128, 256}
}

// repsFor trims repetitions on the most expensive points so the paper-
// scale suite stays tractable.
func (o Options) repsFor(ranks int) int {
	r := o.Reps
	if o.Scale == Paper && ranks >= 1024 && r > 2 {
		return 2
	}
	return r
}

// small returns the small-cluster pfs config.
func (o Options) small() pfs.Config { return pfs.SmallCluster() }

// cielo returns the Cielo-profile pfs config.
func (o Options) cielo() pfs.Config {
	if o.Scale == Paper {
		return pfs.Cielo()
	}
	// Quick mode: small machine with Cielo's contention character.
	c := pfs.Cielo()
	c.Nodes = 64
	return c
}

// n1MountOpt is the standard PLFS mount for N-1 workloads: subdirs spread
// across the volumes (Fig. 6), parallel index read unless overridden.
func (o Options) n1MountOpt(mode plfs.Mode, volumes int) plfs.Options {
	return plfs.Options{
		IndexMode:     mode,
		NumSubdirs:    32,
		SpreadSubdirs: volumes > 1,
		DecodeWorkers: o.DecodeWorkers,
		Retry:         o.Retry,
	}
}

// nnMountOpt is the PLFS mount for N-N workloads: whole containers spread
// across volumes (§V technique 1).
func (o Options) nnMountOpt(volumes int) plfs.Options {
	return plfs.Options{
		IndexMode:        plfs.ParallelIndexRead,
		NumSubdirs:       4,
		SpreadContainers: volumes > 1,
		DecodeWorkers:    o.DecodeWorkers,
		Retry:            o.Retry,
	}
}
