package harness

// Chaos soak: a multi-tenant Service under combined brownout, transient,
// and crash-point injection with the repair daemon ticking.  Tenant A (2
// ranks) runs the full brownout schedule and self-verifies every read;
// tenant B (1 rank) crashes mid-run at a fixed mutating-op count.  After
// both jobs end, a clean audit pass repairs the crash residue and reads
// tenant B's committed containers back byte-identically with zero
// skipped shards.  The whole run — bandwidths, counters, ledger — must
// be bit-deterministic in the seed.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
	"plfs/internal/workloads"
)

// chaosOutcome is everything the determinism check compares.
type chaosOutcome struct {
	aSteps  [chaosSteps]workloads.Result
	bDone   int          // tenant B steps committed before the crash
	bErr    string       // tenant B's terminal error (the crash)
	metrics []byte       // full obs snapshot JSON, the service's registry merged in
	service obs.Snapshot // the service's registry: ledgers and breaker table
	audited int          // tenant B containers read back byte-identical post-repair
}

const (
	chaosSteps  = 8
	chaosOps    = 4
	chaosOpSize = int64(32 << 10)
	// chaosCrashAt lands inside the brownout window, partway through
	// tenant B's schedule (tuned so some containers commit, one tears).
	chaosCrashAt = 160
)

// runChaos executes one soak run, deterministic in the seed.
func runChaos(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := pfs.SmallCluster()
	cfg.Volumes = 4
	cfg.ProcsPerNode = 1
	const ranks = 3 // tenant A: world ranks 0,1; tenant B: world rank 2
	fs := pfs.New(eng, cfg)
	world := mpi.NewWorld(eng, ranks, 1, mpi.DefaultNet())
	roots := make([]string, fs.Volumes())
	for i := range roots {
		roots[i] = fs.VolumeRoot(i)
	}
	opt := plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true,
		HedgedReads: true, IndexReplicas: 2,
		Retry: plfs.RetryPolicy{Attempts: 8, Backoff: 200 * time.Microsecond},
	}
	svc := plfs.NewService(plfs.ServiceOptions{})
	mount := svc.Mount(roots, opt)

	// Per-tenant injectors: each tenant's transient dice consume their
	// own sequence, and only tenant B carries the crash point.
	transients := func(extra string) fault.Spec {
		spec, err := fault.ParseSpec(fmt.Sprintf("seed=%d,all=0.02%s", seed, extra))
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		return spec
	}
	injA := fault.New(transients(""))
	injB := fault.New(transients(fmt.Sprintf(",crashat=%d", chaosCrashAt)))

	reg := obs.New()
	reg.SetClock(func() int64 { return int64(eng.Now()) })

	out := chaosOutcome{}
	var repairErr error
	world.SpawnAll(func(r *mpi.Rank) {
		tenant, inj := "A", injA
		if r.Rank() == 2 {
			tenant, inj = "B", injB
		}
		ctx := simfs.FaultCtx(fs, r.Node(), r.Proc(), r.Rank(), 1, inj)
		ctx.Comm = r.Comm().Split(map[bool]int{true: 0, false: 1}[tenant == "A"], r.Rank())
		ctx.Tenant = tenant
		ctx.Obs = reg
		env := &workloads.Env{
			Ctx:    ctx,
			Driver: adio.PLFS{Mount: mount},
			Path:   "chaos-" + tenant,
			Verify: true,
		}
		if ctx.Comm.Rank() == 0 {
			env.InvalidateCaches = func() { fs.DropCaches(); mount.DropIndexCache() }
		} else {
			env.InvalidateCaches = func() {}
		}
		k := workloads.Brownout{
			Steps: chaosSteps, OpsPerRank: chaosOps, OpSize: chaosOpSize,
		}
		if tenant == "A" {
			env.Step = func(step int, res workloads.Result) {
				out.aSteps[step] = res
				next := step + 1
				if next == chaosSteps {
					return
				}
				// One volume browns out for the middle of the run — for
				// both tenants' injectors, it is the same sick disk.
				if next == 2 {
					injA.SetBrownout(0, 256)
					injB.SetBrownout(0, 256)
				}
				if next == 6 {
					injA.ClearBrownout(0)
					injB.ClearBrownout(0)
				}
				if _, err := svc.RepairTick(ctx, mount); err != nil && repairErr == nil {
					repairErr = err
				}
			}
		} else {
			env.Step = func(step int, res workloads.Result) { out.bDone = step + 1 }
		}
		_, err := k.Run(env, true)
		switch {
		case tenant == "A" && err != nil:
			t.Errorf("tenant A (seed %d): %v", seed, err)
		case tenant == "B" && err == nil:
			t.Errorf("tenant B survived its crash point (seed %d)", seed)
		case tenant == "B":
			out.bErr = err.Error()
		}

		// Audit pass: after both tenants end, world rank 0 repairs the
		// crash residue with a clean (uninjected) context and reads every
		// container tenant B committed back byte-for-byte.
		r.Comm().Barrier()
		if r.Rank() != 0 {
			return
		}
		actx := simfs.Ctx(fs, r.Node(), r.Proc(), r.Rank(), 1)
		actx.Comm = nil
		actx.Obs = reg
		if _, err := svc.RepairTick(actx, mount); err != nil {
			t.Errorf("post-crash repair (seed %d): %v", seed, err)
			return
		}
		for s := 0; s < out.bDone; s++ {
			rel := fmt.Sprintf("chaos-B-s%d", s)
			rd, err := mount.OpenReader(actx, rel)
			if err != nil {
				t.Errorf("audit open %s: %v", rel, err)
				continue
			}
			want := payload.Synthetic(1, 0, chaosOpSize*chaosOps).Materialize()
			got, err := rd.ReadAt(0, chaosOpSize*chaosOps)
			if err != nil {
				t.Errorf("audit read %s: %v", rel, err)
			} else if !bytes.Equal(got.Materialize(), want) {
				t.Errorf("audit %s: bytes differ from what tenant B committed", rel)
			} else {
				out.audited++
			}
			if len(rd.Stats.SkippedShards) != 0 {
				t.Errorf("audit %s skipped shards %v, want none", rel, rd.Stats.SkippedShards)
			}
			if err := rd.Close(); err != nil {
				t.Errorf("audit close %s: %v", rel, err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine (seed %d): %v", seed, err)
	}
	if repairErr != nil {
		t.Fatalf("repair tick (seed %d): %v", seed, repairErr)
	}

	svcReg := svc.Obs()
	reg.Merge(svcReg)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	out.metrics = buf.Bytes()
	out.service = svcReg.Snapshot()
	return out
}

// TestChaosSoak runs the soak twice per seed and checks the invariants
// plus bit-exact reproducibility (the CI runs this under -race -count=2).
func TestChaosSoak(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a := runChaos(t, seed)

			// Tenant B made progress and then actually crashed.
			if a.bDone == 0 || a.bDone == chaosSteps {
				t.Errorf("tenant B committed %d/%d steps; the crash point should land mid-run", a.bDone, chaosSteps)
			}
			if a.bErr == "" {
				t.Errorf("tenant B finished without a crash error")
			}
			if a.audited != a.bDone {
				t.Errorf("audited %d of tenant B's %d committed containers", a.audited, a.bDone)
			}
			// The brownout tripped volume 0's breaker at least once.
			opened := false
			for name, v := range a.service.Gauges {
				if strings.HasPrefix(name, "plfs.health.") && strings.HasSuffix(name, ".opens") && v > 0 {
					opened = true
				}
			}
			if !opened {
				t.Errorf("no breaker opened under the brownout: %v", a.service.Gauges)
			}
			// Repair ledger invariant, read off the service's registry:
			// everything found was classified.
			c := a.service.Counters
			if f, r, u := c["plfs.repair.found"], c["plfs.repair.repaired"], c["plfs.repair.unrepairable"]; f != r+u {
				t.Errorf("repair ledger broken: found %d != repaired %d + unrepairable %d", f, r, u)
			}
			if c["plfs.repair.ticks"] == 0 {
				t.Errorf("repair daemon never ticked")
			}

			// Bit-determinism: an identical run reproduces every output.
			b := runChaos(t, seed)
			if a.aSteps != b.aSteps {
				t.Errorf("tenant A step results differ across identical runs")
			}
			if a.bDone != b.bDone || a.bErr != b.bErr || a.audited != b.audited {
				t.Errorf("tenant B outcome differs across identical runs: %d/%q vs %d/%q",
					a.bDone, a.bErr, b.bDone, b.bErr)
			}
			if !bytes.Equal(a.metrics, b.metrics) {
				t.Errorf("metrics snapshots (service ledgers included) differ across identical runs")
			}
		})
	}
}
