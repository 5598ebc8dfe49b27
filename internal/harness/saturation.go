package harness

import (
	"errors"
	"fmt"
	"time"

	"plfs/internal/adio"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/stats"
	"plfs/internal/workloads"
)

// SaturationTenant describes one tenant job sharing the mount service.
type SaturationTenant struct {
	Name  string
	Class string // admission class; "" = ungated (unless a "" class exists)
	Ranks int
	// Containers, OpsPerRank, and OpSize shape the tenant's workload
	// (see workloads.Saturation).
	Containers int
	OpsPerRank int
	OpSize     int64
}

// SaturationJob is one multi-tenant service run: every tenant's job runs
// concurrently on the simulated cluster against a single plfs.Service.
type SaturationJob struct {
	Seed int64
	Cfg  pfs.Config // zero Nodes = pfs.SmallCluster()
	Net  mpi.NetConfig
	Opt  plfs.Options // zero NumSubdirs = the N-N service mount defaults
	// Svc carries the cache budget and admission classes; TenantClass is
	// derived from the tenants' Class fields.
	Svc     plfs.ServiceOptions
	Tenants []SaturationTenant
	// Obs, if non-nil, additionally receives the service's economy and
	// gate gauges (Service.Publish) after the run.
	Obs *obs.Registry
	// Backend selects the simulated store ("" or BackendPosix, or
	// BackendObjfs).
	Backend string
}

// TenantOutcome is one tenant's view of the run.
type TenantOutcome struct {
	Tenant SaturationTenant
	Result workloads.Result
	// OpenP99 is the tenant's 99th-percentile container open time (write
	// and read opens pooled); Opens counts the samples behind it.
	OpenP99 time.Duration
	Opens   int64
	// Admission is the tenant's ledger from the service
	// (Admitted = Completed + Rejected at quiescence).
	Admission plfs.TenantAdmission
}

// SaturationReport aggregates a SaturationJob.
type SaturationReport struct {
	Tenants []TenantOutcome
	// Makespan is the virtual time from launch to the last tenant's exit.
	Makespan time.Duration
	// AggregateBytes is the total volume written across tenants;
	// AggregateBW divides it by the makespan — the service-wide delivered
	// throughput the tenants experienced together.
	AggregateBytes int64
	AggregateBW    float64
	// OpenP99 is the worst tenant's p99 open time.
	OpenP99 time.Duration
	Service plfs.ServiceStats
}

// RunSaturation executes a multi-tenant service run on the simulated
// cluster: one engine, one parallel file system, one plfs.Service, and a
// communicator split per tenant, deterministic in the seed.
func RunSaturation(j SaturationJob) (SaturationReport, error) {
	if len(j.Tenants) == 0 {
		return SaturationReport{}, errors.New("saturation: no tenants")
	}
	if j.Cfg.Nodes == 0 {
		j.Cfg = pfs.SmallCluster()
	}
	total := 0
	for _, t := range j.Tenants {
		total += t.Ranks
	}
	c, err := newCluster(j.Seed, j.Backend, j.Cfg, total, j.Net, nil)
	if err != nil {
		return SaturationReport{}, err
	}
	c.bindClock(j.Obs)
	if j.Opt.NumSubdirs == 0 {
		j.Opt = plfs.Options{
			IndexMode:        plfs.ParallelIndexRead,
			NumSubdirs:       4,
			SpreadContainers: len(c.roots) > 1,
		}
	}
	if j.Svc.TenantClass == nil {
		j.Svc.TenantClass = map[string]string{}
	}
	for _, t := range j.Tenants {
		if t.Class != "" {
			j.Svc.TenantClass[t.Name] = t.Class
		}
	}
	svc := plfs.NewService(j.Svc)
	mount := svc.Mount(c.roots, j.Opt)

	// Per-tenant registries keep each job's latency histograms separate;
	// all ride the engine's virtual clock.
	regs := make([]*obs.Registry, len(j.Tenants))
	for i := range regs {
		regs[i] = obs.New()
		c.bindClock(regs[i])
	}
	tenantOf := make([]int, total) // global rank -> tenant index
	{
		r := 0
		for ti, t := range j.Tenants {
			for k := 0; k < t.Ranks; k++ {
				tenantOf[r] = ti
				r++
			}
		}
	}
	results := make([]workloads.Result, len(j.Tenants))
	c.world.SpawnAll(func(r *mpi.Rank) {
		ti := tenantOf[r.Rank()]
		t := j.Tenants[ti]
		ctx := c.ctx(r)
		ctx.Comm = ctx.Comm.Split(ti, r.Rank())
		ctx.Tenant = t.Name
		ctx.Obs = regs[ti]
		env := &workloads.Env{
			Ctx:    ctx,
			Driver: adio.PLFS{Mount: mount},
			Path:   "sat-" + t.Name,
			Verify: true,
		}
		k := workloads.Saturation{Containers: t.Containers, OpsPerRank: t.OpsPerRank, OpSize: t.OpSize}
		out, err := k.Run(env, true)
		if err != nil {
			c.fail(fmt.Errorf("tenant %s rank %d: %w", t.Name, ctx.Comm.Rank(), err))
		}
		if ctx.Comm.Rank() == 0 {
			results[ti] = out
		}
	})
	if err := c.run(); err != nil {
		return SaturationReport{}, err
	}

	rep := SaturationReport{
		Makespan: time.Duration(c.eng.Now()),
		Service:  svc.Stats(),
	}
	ledger := map[string]plfs.TenantAdmission{}
	for _, ta := range rep.Service.Tenants {
		ledger[ta.Tenant] = ta
	}
	for ti, t := range j.Tenants {
		wh := regs[ti].Histogram("saturation.open_write_ns")
		rh := regs[ti].Histogram("saturation.open_read_ns")
		p99 := wh.Quantile(0.99)
		if q := rh.Quantile(0.99); q > p99 {
			p99 = q
		}
		out := TenantOutcome{
			Tenant:    t,
			Result:    results[ti],
			OpenP99:   p99,
			Opens:     wh.Count() + rh.Count(),
			Admission: ledger[t.Name],
		}
		rep.Tenants = append(rep.Tenants, out)
		rep.AggregateBytes += results[ti].BytesPerRank * int64(t.Ranks)
		if p99 > rep.OpenP99 {
			rep.OpenP99 = p99
		}
	}
	if s := rep.Makespan.Seconds(); s > 0 {
		rep.AggregateBW = float64(rep.AggregateBytes) / s
	}
	if j.Obs != nil {
		svc.Publish(j.Obs)
	}
	return rep, nil
}

// AblationTenants sweeps the tenant count over one shared mount service —
// aggregate delivered throughput, worst-tenant p99 open latency, and the
// admission ledger as the service saturates.
func AblationTenants(o Options) ([]*stats.Table, error) {
	o = o.withDefaults()
	counts := []int{1, 2, 4, 8}
	ranks, containers := 4, 3
	if o.Scale == Paper {
		counts = []int{1, 2, 4, 8, 16, 32}
		ranks, containers = 16, 4
	}
	bw := &stats.Table{
		Title:  "Ablation: mount-service saturation — aggregate throughput",
		XLabel: "tenants", YLabel: "MB/s",
	}
	p99 := &stats.Table{
		Title:  "Ablation: mount-service saturation — p99 container open",
		XLabel: "tenants", YLabel: "seconds",
	}
	adm := &stats.Table{
		Title:  "Ablation: mount-service saturation — admission outcomes",
		XLabel: "tenants", YLabel: "operations",
	}
	for _, n := range counts {
		var sbw, sp99, sadm, srej stats.Sample
		for rep := 0; rep < o.Reps; rep++ {
			tenants := make([]SaturationTenant, n)
			for i := range tenants {
				tenants[i] = SaturationTenant{
					Name: fmt.Sprintf("t%d", i), Class: "batch",
					Ranks: ranks, Containers: containers,
					OpsPerRank: 8, OpSize: 64 << 10,
				}
			}
			r, err := RunSaturation(SaturationJob{
				Seed:    o.BaseSeed + int64(rep),
				Backend: o.Backend,
				// The batch gate admits four concurrent jobs' operations: a
				// tenant runs one collective op at a time, so the sweep
				// crosses the admission wall at four tenants and the p99
				// curve splits into "queueing" and "rejected" regimes.
				Svc: plfs.ServiceOptions{
					CacheBudgetBytes: 32 << 20,
					Classes:          []plfs.ClassConfig{{Name: "batch", MaxInFlight: 4}},
				},
				Tenants: tenants,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation-tenants @%d: %w", n, err)
			}
			var admitted, rejected int64
			for _, t := range r.Tenants {
				admitted += t.Admission.Admitted
				rejected += t.Admission.Rejected
			}
			sbw.Add(r.AggregateBW / 1e6)
			sp99.Add(r.OpenP99.Seconds())
			sadm.Add(float64(admitted))
			srej.Add(float64(rejected))
			o.log("ablation-tenants n=%-3d rep %d: aggBW %.0f MB/s p99open %.3fs admitted %d rejected %d",
				n, rep, r.AggregateBW/1e6, r.OpenP99.Seconds(), admitted, rejected)
		}
		bw.AddSample("aggregate", float64(n), &sbw)
		p99.AddSample("worst-tenant", float64(n), &sp99)
		adm.AddSample("admitted", float64(n), &sadm)
		adm.AddSample("rejected", float64(n), &srej)
	}
	return []*stats.Table{bw, p99, adm}, nil
}
