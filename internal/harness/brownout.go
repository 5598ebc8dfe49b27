package harness

import (
	"errors"
	"fmt"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/stats"
	"plfs/internal/workloads"
)

// BrownoutJob is one self-healing run: a single job writes and verifies
// a fresh container per step while one volume browns out (latency
// multiplied, error rate elevated) for a window of steps in the middle.
// The per-step bandwidth series shows how much of the healthy service
// the configured resilience features preserve — the ablation-brownout
// figure compares naive, hedged, and hedged+replicated mounts.
type BrownoutJob struct {
	Seed int64
	Cfg  pfs.Config // zero Nodes = pfs.SmallCluster()
	Net  mpi.NetConfig
	Opt  plfs.Options // zero NumSubdirs = spread-subdir service defaults
	Svc  plfs.ServiceOptions
	// Ranks, Steps, OpsPerRank, OpSize shape the workload
	// (see workloads.Brownout).
	Ranks      int
	Steps      int
	OpsPerRank int
	OpSize     int64
	// BrownVol browns at BrownFactor from step BrownFrom (inclusive)
	// through BrownTo (exclusive); factor <= 1 disables the fault.
	BrownVol    int
	BrownFactor float64
	BrownFrom   int
	BrownTo     int
	// Fault adds a base injection spec (transients etc.) under the
	// brownout schedule.
	Fault fault.Spec
	// Repair, when set, runs one service repair tick at every step
	// boundary (rank 0), healing under-replicated indices mid-run.
	Repair bool
	// Obs, if non-nil, receives the service gauges (health table,
	// repair ledger) after the run.
	Obs *obs.Registry
	// Backend selects the simulated store ("" or BackendPosix, or
	// BackendObjfs).  Over objfs the brownout schedule still keys on the
	// injector's volume index, so a browned "volume" is a browned slice
	// of the flat keyspace.
	Backend string
}

// BrownoutStep is one step of the time series.
type BrownoutStep struct {
	Step    int
	Browned bool
	// BW is the step's delivered bandwidth (bytes/sec): the step's byte
	// volume over its full write+verify-read span.
	BW float64
}

// BrownoutReport aggregates a BrownoutJob.
type BrownoutReport struct {
	Steps []BrownoutStep
	// HealthyBW averages the steps outside the brownout window that also
	// precede it (the baseline); BrownBW averages the browned steps;
	// AfterBW averages the post-window steps (the recovery).
	HealthyBW float64
	BrownBW   float64
	AfterBW   float64
	// Hedged / HedgeWins / Failover are the run's hedge counters.
	Hedged    int64
	HedgeWins int64
	Failover  int64
	Health    []plfs.VolHealth
	Repair    plfs.RepairTotals
}

// RunBrownout executes a brownout run on the simulated cluster,
// deterministic in the seed.
func RunBrownout(j BrownoutJob) (BrownoutReport, error) {
	if j.Ranks <= 0 || j.Steps <= 0 {
		return BrownoutReport{}, errors.New("brownout: need Ranks and Steps")
	}
	if j.Cfg.Nodes == 0 {
		// Self-healing needs somewhere to fail over to: a federated
		// mount over four volumes, one of which will brown out.  One
		// rank per node so the ranks land on distinct hosts and every
		// container spreads hostdirs across all four volumes — each
		// step then genuinely exercises the browned volume.
		j.Cfg = pfs.SmallCluster()
		j.Cfg.Volumes = 4
		j.Cfg.ProcsPerNode = 1
	}
	inj := fault.New(j.Fault)
	c, err := newCluster(j.Seed, j.Backend, j.Cfg, j.Ranks, j.Net, inj)
	if err != nil {
		return BrownoutReport{}, err
	}
	if j.Opt.NumSubdirs == 0 {
		j.Opt.IndexMode = plfs.ParallelIndexRead
		j.Opt.NumSubdirs = 4
		j.Opt.SpreadContainers = len(c.roots) > 1
		j.Opt.SpreadSubdirs = len(c.roots) > 1
	}
	if j.Opt.Retry.Attempts <= 1 {
		// Brownouts elevate transient error rates; the retry policy is
		// the absorption layer that turns them into latency (which the
		// breaker then sees as slowness).
		j.Opt.Retry = plfs.RetryPolicy{Attempts: 12, Backoff: 200 * time.Microsecond}
	}
	svc := plfs.NewService(j.Svc)
	mount := svc.Mount(c.roots, j.Opt)
	// The workload streams into the caller's registry when one was given
	// (so a -metrics dump carries the hedge/read counters, not just the
	// end-of-run gauges); otherwise a private one backs the report.
	reg := j.Obs
	if reg == nil {
		reg = obs.New()
	}
	c.bindClock(reg)

	steps := make([]BrownoutStep, j.Steps)
	c.world.SpawnAll(func(r *mpi.Rank) {
		ctx := c.ctx(r)
		ctx.Obs = reg
		env := &workloads.Env{
			Ctx:    ctx,
			Driver: adio.PLFS{Mount: mount},
			Path:   "brn",
			Verify: true,
			// Cold caches before every readback: the self-healing claim is
			// about the backend read path (dropping discovery, index reads),
			// which a warm cross-open index cache would short-circuit.
			InvalidateCaches: c.invalidator(r, mount),
		}
		k := workloads.Brownout{
			Steps:      j.Steps,
			OpsPerRank: j.OpsPerRank,
			OpSize:     j.OpSize,
			Control: func(step int) {
				// Rank 0, at the step boundary: toggle the brownout
				// window and (optionally) run a repair pass.
				if j.BrownFactor > 1 {
					if step == j.BrownFrom {
						inj.SetBrownout(j.BrownVol, j.BrownFactor)
					}
					if step == j.BrownTo {
						inj.ClearBrownout(j.BrownVol)
					}
				}
				if j.Repair && step > 0 {
					if _, err := svc.RepairTick(ctx, mount); err != nil {
						c.fail(fmt.Errorf("repair tick @%d: %w", step, err))
					}
				}
			},
			Observe: func(step int, res workloads.Result) {
				if ctx.Comm.Rank() != 0 {
					return
				}
				span := res.WriteTotal() + res.ReadTotal()
				bw := 0.0
				if span > 0 {
					bw = float64(res.BytesPerRank) * float64(j.Ranks) / span.Seconds()
				}
				steps[step] = BrownoutStep{
					Step:    step,
					Browned: j.BrownFactor > 1 && step >= j.BrownFrom && step < j.BrownTo,
					BW:      bw,
				}
			},
		}
		if _, err := k.Run(env, true); err != nil {
			c.fail(fmt.Errorf("rank %d: %w", ctx.Comm.Rank(), err))
		}
	})
	if err := c.run(); err != nil {
		return BrownoutReport{}, err
	}

	rep := BrownoutReport{
		Steps:     steps,
		Hedged:    reg.Counter("plfs.read.hedged").Value(),
		HedgeWins: reg.Counter("plfs.read.hedge_wins").Value(),
		Failover:  reg.Counter("plfs.replica.failover").Value(),
		Repair:    svc.Stats().Repair,
		Health:    svc.Health().Snapshot(),
	}
	var nh, nb, na int
	for _, s := range steps {
		switch {
		case s.Browned:
			rep.BrownBW += s.BW
			nb++
		case s.Step < j.BrownFrom || j.BrownFactor <= 1:
			rep.HealthyBW += s.BW
			nh++
		default:
			rep.AfterBW += s.BW
			na++
		}
	}
	if nh > 0 {
		rep.HealthyBW /= float64(nh)
	}
	if nb > 0 {
		rep.BrownBW /= float64(nb)
	}
	if na > 0 {
		rep.AfterBW /= float64(na)
	}
	if j.Obs != nil {
		svc.Publish(j.Obs)
		svc.Health().Publish(j.Obs)
	}
	return rep, nil
}

// brownoutVariant names one resilience configuration of the ablation.
type brownoutVariant struct {
	name     string
	hedged   bool
	replicas int
}

// AblationBrownout runs the same brownout schedule against three mounts
// — naive (no resilience), hedged reads only, and hedged + replicated
// indices — and reports the per-step delivered bandwidth series plus
// the hedge/repair counters behind them.  The self-healing claim reads
// straight off the table: the hedged+replicated series holds most of
// the healthy bandwidth through the browned window (the breaker steers
// placement and reads around the sick volume) and returns to baseline
// once half-open probes close the breaker.
func AblationBrownout(o Options) ([]*stats.Table, error) {
	o = o.withDefaults()
	job := BrownoutJob{
		Ranks: 4, Steps: 10, OpsPerRank: 8, OpSize: 64 << 10,
		BrownVol: 0, BrownFactor: 256, BrownFrom: 2, BrownTo: 7,
		Repair: true, Backend: o.Backend,
	}
	if o.Scale == Paper {
		job.Ranks, job.Steps, job.OpsPerRank = 16, 12, 16
		job.BrownFrom, job.BrownTo = 3, 8
	}
	variants := []brownoutVariant{
		{"naive", false, 0},
		{"hedged", true, 0},
		{"hedged+replicated", true, 2},
	}
	bw := &stats.Table{
		Title:  "Ablation: brownout self-healing — per-step delivered bandwidth",
		XLabel: "step", YLabel: "MB/s",
	}
	ctr := &stats.Table{
		Title:  "Ablation: brownout self-healing — hedge and repair activity",
		XLabel: "variant (0=naive 1=hedged 2=hedged+replicated)", YLabel: "count",
	}
	for vi, v := range variants {
		perStep := make([]stats.Sample, job.Steps)
		var hedged, wins, repaired stats.Sample
		for rep := 0; rep < o.Reps; rep++ {
			jv := job
			jv.Seed = o.BaseSeed + int64(rep)
			jv.Opt = plfs.Options{
				IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
				SpreadContainers: true, SpreadSubdirs: true,
				HedgedReads: v.hedged, IndexReplicas: v.replicas,
			}
			r, err := RunBrownout(jv)
			if err != nil {
				return nil, fmt.Errorf("ablation-brownout %s: %w", v.name, err)
			}
			for _, s := range r.Steps {
				perStep[s.Step].Add(s.BW / 1e6)
			}
			hedged.Add(float64(r.Hedged))
			wins.Add(float64(r.HedgeWins))
			repaired.Add(float64(r.Repair.Repaired))
			o.log("ablation-brownout %-17s rep %d: healthy %.0f brown %.0f after %.0f MB/s hedged %d wins %d repaired %d",
				v.name, rep, r.HealthyBW/1e6, r.BrownBW/1e6, r.AfterBW/1e6,
				r.Hedged, r.HedgeWins, r.Repair.Repaired)
		}
		for s := range perStep {
			bw.AddSample(v.name, float64(s), &perStep[s])
		}
		ctr.AddSample("hedged", float64(vi), &hedged)
		ctr.AddSample("hedge-wins", float64(vi), &wins)
		ctr.AddSample("repaired", float64(vi), &repaired)
	}
	return []*stats.Table{bw, ctr}, nil
}
