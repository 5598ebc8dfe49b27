package harness

import (
	"errors"
	"fmt"

	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/objfs"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// cluster is the simulated machine one run executes on: the engine, the
// store under the mount, the MPI world, and the store-specific plumbing
// every Run* entry point needs.  The backend is chosen once, in
// newCluster; everything downstream goes through these fields.
type cluster struct {
	eng   *sim.Engine
	roots []string
	world *mpi.World

	// ctx builds a rank's plfs.Ctx on its world communicator, the volumes
	// behind the run's fault injector when there is one.
	ctx func(r *mpi.Rank) plfs.Ctx
	// dropCaches invalidates the store's client and server caches.
	dropCaches func()
	report     func() pfs.Report
	publish    func(reg *obs.Registry)
	probes     func() []struct {
		Name string
		Fn   func() float64
	}

	// failed is the first failure a rank reported (see fail, run).
	failed error
}

// newCluster builds the machine for one run, deterministic in the seed.
// Exactly one store backs it (see BackendPosix and BackendObjfs for what
// each takes from cfg).  A zero net means mpi.DefaultNet; a nil inj
// leaves the volumes bare.
func newCluster(seed int64, backend string, cfg pfs.Config, ranks int, net mpi.NetConfig, inj *fault.Injector) (*cluster, error) {
	if backend != "" && backend != BackendPosix && backend != BackendObjfs {
		return nil, fmt.Errorf("harness: unknown backend %q", backend)
	}
	if net == (mpi.NetConfig{}) {
		net = mpi.DefaultNet()
	}
	c := &cluster{eng: sim.NewEngine(seed)}
	// Oversubscribe cores when the job exceeds the machine (the paper runs
	// 2048 concurrent I/O streams on its 1024-core cluster).
	if ranks > cfg.Nodes*cfg.ProcsPerNode {
		cfg.ProcsPerNode = (ranks + cfg.Nodes - 1) / cfg.Nodes
	}
	ppn := cfg.ProcsPerNode
	var volCtx func(r *mpi.Rank) plfs.Ctx
	if backend == BackendObjfs {
		store := objfs.NewSim(c.eng, objfs.DefaultConfig())
		c.roots = store.Roots(max(cfg.Volumes, 1))
		volCtx = func(r *mpi.Rank) plfs.Ctx {
			return objfs.FaultCtx(store, len(c.roots), r.Node(), r.Proc(), r.Rank(), ppn, inj)
		}
		c.dropCaches = func() {} // the object store keeps no caches
		c.report, c.publish, c.probes = store.Report, store.PublishObs, store.TraceProbes
	} else {
		fs := pfs.New(c.eng, cfg)
		c.roots = make([]string, fs.Volumes())
		for i := range c.roots {
			c.roots[i] = fs.VolumeRoot(i)
		}
		volCtx = func(r *mpi.Rank) plfs.Ctx {
			return simfs.FaultCtx(fs, r.Node(), r.Proc(), r.Rank(), ppn, inj)
		}
		c.dropCaches = fs.DropCaches
		c.report, c.publish, c.probes = fs.Report, fs.PublishObs, fs.TraceProbes
	}
	c.ctx = func(r *mpi.Rank) plfs.Ctx {
		ctx := volCtx(r)
		ctx.Comm = r.Comm()
		return ctx
	}
	c.world = mpi.NewWorld(c.eng, ranks, ppn, net)
	return c, nil
}

// fail records a rank's failure; the first one is the run's root cause.
func (c *cluster) fail(err error) {
	if c.failed == nil {
		c.failed = err
	}
}

// run drives the engine to completion and returns the run's verdict.  A
// rank that died on an unabsorbed error leaves the others blocked at a
// collective, so the root cause is surfaced alongside the engine's
// deadlock verdict.
func (c *cluster) run() error {
	if err := c.eng.Run(); err != nil {
		return errors.Join(c.failed, err)
	}
	return c.failed
}

// bindClock makes reg ride the virtual clock: a span covering a
// simulated phase reports simulated time, deterministic in the seed.
func (c *cluster) bindClock(reg *obs.Registry) {
	reg.SetClock(func() int64 { return int64(c.eng.Now()) })
}

// invalidator is the kernels' cold-cache hook for rank r: rank 0 drops
// the store's caches and the mount's index cache, every other rank only
// participates in the barrier around it.
func (c *cluster) invalidator(r *mpi.Rank, m *plfs.Mount) func() {
	if r.Rank() != 0 {
		return func() {}
	}
	return func() {
		c.dropCaches()
		m.DropIndexCache()
	}
}
