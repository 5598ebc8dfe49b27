// Package harness assembles full experiments: it builds a simulated
// cluster, an MPI world, a PLFS mount, runs a workload kernel through a
// chosen driver, repeats over seeds, and renders the mean ± stddev series
// each of the paper's evaluation figures reports.
package harness

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/objfs"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
	"plfs/internal/stats"
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

// Job describes one simulated run: one or more tenants, each a kernel
// on its own ranks, sharing one cluster and one mount.
type Job struct {
	Seed int64
	// Backend selects the simulated store under the mount: "" or
	// BackendPosix for the POSIX cluster, BackendObjfs for the flat
	// object store.
	Backend string
	// Ranks and Kernel are the job's single tenant when Tenants is empty.
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
	// rank of every unnamed tenant, plus the store's and the service's
	// end-of-run gauges (plfsrun -metrics/-spans).  The harness rebinds
	// the registry's clock to the engine's virtual time, so span
	// durations and latency histograms report simulated seconds; see
	// DESIGN.md §11.
	Obs *obs.Registry
	// Tenants, when set, replaces Ranks and Kernel: the world's ranks are
	// dealt to the tenants in order.
	Tenants []Tenant
	// Svc, if non-nil, builds the mount through a plfs.Service with these
	// options (cache economy, admission classes, breakers, repair).
	Svc *plfs.ServiceOptions
	// Step, if set, becomes each tenant's workloads.Env.Step: it runs on
	// the tenant's rank 0 at every step boundary of a stepped kernel.  An
	// error fails the run without stopping the kernel.
	Step func(l *Live, step int, res workloads.Result) error
}

// Tenant is one kernel of a job on its own ranks.  A named tenant is a
// separate job on the shared mount: it runs on its own communicator
// (split from the world), carries its name in plfs.Ctx.Tenant for
// admission, and records into a registry of its own (Report.Obs).
type Tenant struct {
	Name   string
	Ranks  int
	Kernel workloads.Kernel
	// Path is the kernel's file name.
	Path string
}

// Live is what a Job's Step hook reaches of the running job.
type Live struct {
	Ctx    plfs.Ctx // the calling rank's
	Mount  *plfs.Mount
	Svc    *plfs.Service   // nil without Job.Svc
	Faults *fault.Injector // nil without Job.Fault
	// Report reads the store's resource usage so far.
	Report func() pfs.Report
}

// Report is a run's outcome.
type Report struct {
	// Result is the first tenant's (identical on all its ranks).
	workloads.Result
	// Bytes is the volume written across every tenant's ranks.
	Bytes int64
	// Makespan is the virtual time from launch to the last rank's exit.
	Makespan time.Duration
	PFS      pfs.Report
	// Service is the service's registry (plfs.Service.Obs): its admission
	// and repair ledgers as counters, its economy, gate and breaker
	// state as gauges.  Nil without Job.Svc.
	Service *obs.Registry
	// Obs holds, per tenant, the registry its ranks recorded into: a
	// named tenant's own, Job.Obs otherwise.
	Obs []*obs.Registry
	// Events and Digest are the engine's event count and event digest
	// (sim.Engine.Events, Digest): equal digests mean the runs popped
	// the same events in the same order.
	Events, Digest uint64
}

// RunWithReport is Run for callers that want only the first tenant's
// result and the store's resource usage.
func RunWithReport(j Job) (workloads.Result, pfs.Report, error) {
	r, err := Run(j)
	return r.Result, r.PFS, err
}

// Run executes the job, deterministic in the seed.  Exactly one store
// backs it (see BackendPosix and BackendObjfs for what each takes from
// Cfg); a zero Net means mpi.DefaultNet.
func Run(j Job) (Report, error) {
	if j.Backend != "" && j.Backend != BackendPosix && j.Backend != BackendObjfs {
		return Report{}, fmt.Errorf("harness: unknown backend %q", j.Backend)
	}
	tenants := j.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Ranks: j.Ranks, Kernel: j.Kernel, Path: j.Kernel.Name()}}
	}
	total := 0
	for _, t := range tenants {
		if t.Ranks < 1 {
			return Report{}, fmt.Errorf("harness: %s: %d ranks, want at least 1", t.Path, t.Ranks)
		}
		total += t.Ranks
	}
	var inj *fault.Injector
	if j.Fault != nil {
		inj = fault.New(*j.Fault)
		inj.Obs = j.Obs
	}
	eng := sim.NewEngine(j.Seed)
	// Oversubscribe cores when the job exceeds the machine (the paper runs
	// 2048 concurrent I/O streams on its 1024-core cluster).
	cfg := j.Cfg
	if total > cfg.Nodes*cfg.ProcsPerNode {
		cfg.ProcsPerNode = (total + cfg.Nodes - 1) / cfg.Nodes
	}
	ppn := cfg.ProcsPerNode
	// The store under the mount: its volume roots, a rank's plfs.Ctx (the
	// volumes behind the fault injector when there is one), its cache drop
	// and its reports.  The backend is chosen here, once.
	var (
		roots      []string
		ctxOf      func(r *mpi.Rank) plfs.Ctx
		dropCaches = func() {} // the object store keeps no caches
		report     func() pfs.Report
		publish    func(reg *obs.Registry)
		probes     func() []probe
	)
	if j.Backend == BackendObjfs {
		store := objfs.NewSim(eng, objfs.DefaultConfig())
		roots = store.Roots(max(cfg.Volumes, 1))
		ctxOf = func(r *mpi.Rank) plfs.Ctx {
			return objfs.FaultCtx(store, len(roots), r.Node(), r.Proc(), r.Rank(), ppn, inj)
		}
		report, publish, probes = store.Report, store.PublishObs, store.TraceProbes
	} else {
		fs := pfs.New(eng, cfg)
		for i := 0; i < fs.Volumes(); i++ {
			roots = append(roots, fs.VolumeRoot(i))
		}
		ctxOf = func(r *mpi.Rank) plfs.Ctx {
			return simfs.FaultCtx(fs, r.Node(), r.Proc(), r.Rank(), ppn, inj)
		}
		dropCaches = fs.DropCaches
		report, publish, probes = fs.Report, fs.PublishObs, fs.TraceProbes
	}
	net := j.Net
	if net == (mpi.NetConfig{}) {
		net = mpi.DefaultNet()
	}
	world := mpi.NewWorld(eng, total, ppn, net)
	// failed is the first failure a rank reported: the run's root cause.  A
	// rank that died on an unabsorbed error leaves the others blocked at a
	// collective, so Run surfaces it alongside the engine's deadlock verdict.
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}
	// Every registry rides the virtual clock: a span covering a simulated
	// phase reports simulated time, deterministic in the seed.
	clock := func() int64 { return int64(eng.Now()) }
	j.Obs.SetClock(clock)

	var svc *plfs.Service
	var mount *plfs.Mount
	if j.Svc != nil {
		svc = plfs.NewService(*j.Svc)
		mount = svc.Mount(roots, j.Opt)
	} else {
		mount = plfs.NewMount(roots, j.Opt)
	}
	regs := make([]*obs.Registry, len(tenants))
	for i, t := range tenants {
		regs[i] = j.Obs
		if t.Name != "" {
			regs[i] = obs.New()
			regs[i].SetClock(clock)
		}
	}
	results := make([]workloads.Result, len(tenants))
	// Every rank's Env lives as long as the run: allocate them together.
	envs := make([]workloads.Env, total)
	// rankEnv builds rank r's Env and finds its tenant.  It runs before,
	// not around, the kernel: a simulated process runs on a coroutine
	// stack that grows by copying, and every frame below the kernel's
	// calls deepens the stack their backend calls reach.
	rankEnv := func(r *mpi.Rank) (*workloads.Env, int) {
		ti := 0 // the world's ranks are dealt to the tenants in order
		for n := r.Rank(); n >= tenants[ti].Ranks; ti++ {
			n -= tenants[ti].Ranks
		}
		t := tenants[ti]
		ctx := ctxOf(r)
		ctx.Comm, ctx.Obs = r.Comm(), regs[ti]
		if t.Name != "" {
			ctx.Comm = ctx.Comm.Split(ti, r.Rank())
			ctx.Tenant = t.Name
		}
		var drv adio.Driver
		path := t.Path
		if j.UsePLFS {
			drv = adio.PLFS{Mount: mount}
		} else {
			drv = adio.UFS{Vol: 0}
			path = roots[0] + "/" + path
		}
		env := &envs[r.Rank()]
		*env = workloads.Env{Ctx: ctx, Driver: drv, Hints: j.Hints, Path: path, Verify: j.Verify}
		if j.DropCaches {
			// Rank 0 drops the store's caches and the mount's index cache;
			// every other rank only joins the barriers around it.
			env.InvalidateCaches = func() {}
			if ctx.Comm.Rank() == 0 {
				env.InvalidateCaches = func() { dropCaches(); mount.DropIndexCache() }
			}
		}
		if j.Step != nil {
			l := &Live{Ctx: ctx, Mount: mount, Svc: svc, Faults: inj, Report: report}
			env.Step = func(s int, res workloads.Result) {
				if err := j.Step(l, s, res); err != nil {
					fail(fmt.Errorf("step %d: %w", s, err))
				}
			}
		}
		return env, ti
	}
	world.SpawnAll(func(r *mpi.Rank) {
		env, ti := rankEnv(r)
		out, err := tenants[ti].Kernel.Run(env, j.ReadBack)
		if err != nil {
			fail(fmt.Errorf("rank %d: %w", r.Rank(), err))
		}
		if env.Ctx.Comm.Rank() == 0 {
			results[ti] = out
		}
	})
	rep := Report{Obs: regs}
	var tr *trace
	if j.TraceEvery > 0 && j.TraceTo != nil {
		tr = startTrace(eng, j.TraceEvery, probes())
	}
	err := eng.Run()
	rep.Events, rep.Digest = eng.Events(), eng.Digest()
	// A failed run's registry keeps what the run counted, the service's
	// ledgers included: they say how far it got.
	publish(j.Obs)
	if svc != nil {
		rep.Service = svc.Obs()
		j.Obs.Merge(rep.Service)
	}
	if err != nil {
		return rep, errors.Join(failed, err)
	}
	if tr != nil {
		if err := tr.writeCSV(j.TraceTo); err != nil {
			return rep, err
		}
	}
	rep.Result, rep.PFS = results[0], report()
	rep.Makespan = time.Duration(eng.Now())
	for i, t := range tenants {
		rep.Bytes += results[i].BytesPerRank * int64(t.Ranks)
	}
	// Run forces no collection: Figure.run returns a large run's heap to
	// the OS before it admits the next run.
	return rep, failed
}

// probe reads one instantaneous metric of the store for a trace.
type probe = struct {
	Name string
	Fn   func() float64
}

// trace is a job's resource time series (Job.TraceEvery, plfsrun
// -trace): each row is a sample's virtual time in seconds, then every
// probe's value.
type trace struct {
	probes []probe
	rows   [][]float64
}

// startTrace samples probes now and every interval of virtual time
// after, until a sample finds no process left, so the engine drains.
func startTrace(eng *sim.Engine, every time.Duration, probes []probe) *trace {
	t := &trace{probes: probes}
	var sample func()
	sample = func() {
		row := make([]float64, 0, len(probes)+1)
		row = append(row, eng.Now().Seconds())
		for _, p := range probes {
			row = append(row, p.Fn())
		}
		t.rows = append(t.rows, row)
		eng.After(every, func() {
			if eng.Live() > 0 {
				sample()
			}
		})
	}
	sample()
	return t
}

// writeCSV writes a header row, then one row per sample.
func (t *trace) writeCSV(w io.Writer) error {
	names := []string{"t_seconds"}
	for _, p := range t.probes {
		names = append(names, p.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells := []string{fmt.Sprintf("%.6f", row[0])}
		for _, v := range row[1:] {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Tenants is the multi-tenant service run (ablation-tenants, plfsrun
// -tenants): n tenants t0, t1, … of ranks ranks each run k concurrently
// against one plfs.Service, whose "batch" admission class they all
// belong to admits inflight operations at once and whose cache holds
// budget bytes.  Report.Obs carries each tenant's open latencies (see
// OpenP99).
func Tenants(cfg pfs.Config, n, ranks int, k workloads.Saturation, inflight int, budget int64) Job {
	j := Job{
		Cfg: cfg, UsePLFS: true, ReadBack: true, Verify: true,
		Opt: plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4, SpreadContainers: cfg.Volumes > 1},
		Svc: &plfs.ServiceOptions{
			CacheBudgetBytes: budget,
			Classes:          []plfs.ClassConfig{{Name: "batch", MaxInFlight: inflight}},
			TenantClass:      map[string]string{},
		},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		j.Svc.TenantClass[name] = "batch"
		j.Tenants = append(j.Tenants, Tenant{Name: name, Ranks: ranks, Kernel: k, Path: "sat-" + name})
	}
	return j
}

// OpenP99 reads a saturation tenant's 99th-percentile container open
// time, write and read opens pooled, and the opens behind it off the
// tenant's registry.
func OpenP99(reg *obs.Registry) (time.Duration, int64) {
	wh, rh := reg.Histogram("saturation.open_write_ns"), reg.Histogram("saturation.open_read_ns")
	return max(wh.Quantile(0.99), rh.Quantile(0.99)), wh.Count() + rh.Count()
}

// worstP99 reads the worst tenant's OpenP99, in seconds.
func worstP99(r Report, _ int) float64 {
	var worst time.Duration
	for _, reg := range r.Obs {
		p99, _ := OpenP99(reg)
		worst = max(worst, p99)
	}
	return worst.Seconds()
}

// Brownout is the self-healing run (ablation-brownout, plfsrun
// -brownout): ranks ranks, one per node so every container spreads its
// hostdirs over all four volumes of the federation, run k through a
// service mount with opt while volume vol browns out (latency
// multiplied, error rate elevated) at factor over steps [from, to), and
// a service repair tick runs at every step boundary.  The returned
// slice receives each step's delivered bandwidth: the step's bytes over
// its write+verify-read span, in bytes/s.
func Brownout(k workloads.Brownout, ranks, vol int, factor float64, from, to int, opt plfs.Options) (Job, []float64) {
	cfg := pfs.SmallCluster()
	cfg.Volumes, cfg.ProcsPerNode = 4, 1
	// Brownouts elevate transient error rates; the retry policy is the
	// absorption layer that turns them into latency (which the breaker
	// then sees as slowness).
	opt.Retry = plfs.RetryPolicy{Attempts: 12, Backoff: 200 * time.Microsecond}
	var spec fault.Spec
	if factor > 1 && from == 0 && to > 0 {
		// No boundary precedes step 0: a window that opens there is the
		// injector's starting state.
		spec.Brownout = map[int]float64{vol: factor}
	}
	bw := make([]float64, k.Steps)
	j := Job{
		Cfg: cfg, Opt: opt, Svc: &plfs.ServiceOptions{}, Fault: &spec,
		Tenants: []Tenant{{Ranks: ranks, Kernel: k, Path: "brn"}},
		UsePLFS: true, ReadBack: true, Verify: true,
		// Cold caches before every readback: the self-healing claim is
		// about the backend read path (dropping discovery, index reads),
		// which a warm cross-open index cache would short-circuit.
		DropCaches: true,
		Step: func(l *Live, s int, res workloads.Result) error {
			if span := res.WriteTotal() + res.ReadTotal(); span > 0 {
				bw[s] = float64(res.BytesPerRank) * float64(ranks) / span.Seconds()
			}
			next := s + 1
			if next == k.Steps {
				return nil
			}
			if factor > 1 && next == from {
				l.Faults.SetBrownout(vol, factor)
			}
			if factor > 1 && next == to {
				l.Faults.ClearBrownout(vol)
			}
			_, err := l.Svc.RepairTick(l.Ctx, l.Mount)
			return err
		},
	}
	return j, bw
}

// BrownoutWindows averages Brownout's per-step bandwidth over the steps
// before, inside and after the window [from, to); a window with no steps
// averages 0.
func BrownoutWindows(bw []float64, from, to int) (before, in, after float64) {
	var w [3]stats.Sample
	for s, b := range bw {
		switch {
		case s < from:
			w[0].Add(b)
		case s < to:
			w[1].Add(b)
		default:
			w[2].Add(b)
		}
	}
	return w[0].Mean(), w[1].Mean(), w[2].Mean()
}

// MetaStorm is the metadata-at-scale run (ablation-metadata, plfsrun
// -kernel meta-storm): ranks ranks run the collective create storm k on
// the POSIX cluster federated over four metadata volumes (skew needs a
// federation to be skewed across), with bulk-create batching and
// between-round volume rebalancing togglable.
func MetaStorm(ranks int, k workloads.CreateStorm100k, bulk, rebalance bool) Job {
	cfg := pfs.SmallCluster()
	cfg.Volumes = 4
	j := Job{
		Ranks: ranks, Cfg: cfg, Kernel: k, UsePLFS: true,
		// Skew is POSIX MDS busy time; the object store has no MDS.
		Backend: BackendPosix,
		Opt: plfs.Options{
			IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
			SpreadContainers: true, BulkCreate: bulk,
		},
	}
	if !rebalance {
		return j
	}
	// After every round but the last (nothing is left to optimize), rank
	// 0 rebalances each container, with the per-volume MDS busy time since
	// the previous pass as Mount.Rebalance's load — the signal the
	// pfs.vol<i>.mds_busy_seconds gauges export.  The other ranks wait at
	// the round's barrier, and the simulation is cooperative, so reading
	// the report mid-run is safe.  The hook keeps state of its own (last),
	// so run a Job MetaStorm returns once; grid builds one per run.
	var last []time.Duration
	j.Step = func(l *Live, round int, _ workloads.Result) error {
		if round == k.Rounds-1 {
			return nil
		}
		busy := l.Report().MDSBusy
		if round == 0 {
			last = make([]time.Duration, len(busy))
		}
		loads := make([]float64, len(busy))
		for v := range busy {
			loads[v] = (busy[v] - last[v]).Seconds()
		}
		copy(last, busy)
		load := func(v int) float64 { return loads[v] }
		for i := 0; i < k.Containers; i++ {
			if _, err := l.Mount.Rebalance(l.Ctx, fmt.Sprintf("%s-c%d", k.Name(), i), load); err != nil {
				return err
			}
		}
		return nil
	}
	return j
}

// CreateRate is a storm run's per-op open rate: every create over the
// summed collective open time.
func CreateRate(k workloads.CreateStorm100k, ranks int, r Report) float64 {
	if s := r.WriteOpen.Seconds(); s > 0 {
		return float64(k.Creates(ranks)) / s
	}
	return 0
}

// MDSSkew is max/median over the per-volume MDS busy times (1 when
// degenerate) — the harness-side mirror of the mount's load-skew gate.
func MDSSkew(busy []time.Duration) float64 {
	if len(busy) < 2 {
		return 1
	}
	sorted := slices.Clone(busy)
	slices.Sort(sorted)
	maxL, med := sorted[len(sorted)-1].Seconds(), sorted[len(sorted)/2].Seconds()
	switch {
	case maxL <= 0:
		return 1
	case med <= 0:
		return maxL / 1e-9
	}
	return maxL / med
}
