package harness

import (
	"slices"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// brownoutRun runs the acceptance-test schedule: ten steps, volume 0
// browned out (256x latency, elevated transients) for steps 2-6.
func brownoutRun(t *testing.T, hedged bool, replicas int) (Report, []float64) {
	t.Helper()
	j, bw := Brownout(workloads.Brownout{Steps: 10, OpsPerRank: 8, OpSize: 64 << 10}, 4, 0, 256, 2, 7, plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true,
		HedgedReads: hedged, IndexReplicas: replicas,
	})
	j.Seed, j.Obs = 11, obs.New()
	r, err := Run(j)
	if err != nil {
		t.Fatalf("brownout (hedged=%v replicas=%d): %v", hedged, replicas, err)
	}
	return r, bw
}

func hedges(r Report) (hedged, wins int64) {
	return r.Obs[0].Counter("plfs.read.hedged").Value(), r.Obs[0].Counter("plfs.read.hedge_wins").Value()
}

func TestBrownoutWindows(t *testing.T) {
	bw := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct {
		from, to          int
		before, in, after float64
	}{
		{1, 3, 1, 2.5, 4.5},
		{0, 2, 0, 1.5, 4}, // window opens at step 0: nothing before it
		{5, 5, 3, 0, 0},   // no window: every step is healthy
	} {
		b, i, a := BrownoutWindows(bw, c.from, c.to)
		if b != c.before || i != c.in || a != c.after {
			t.Errorf("BrownoutWindows(%v, %d, %d) = %v, %v, %v; want %v, %v, %v",
				bw, c.from, c.to, b, i, a, c.before, c.in, c.after)
		}
	}
}

// TestBrownoutSelfHealing is the headline acceptance check: during a
// 1-volume brownout the hedged+replicated mount sustains most of the
// healthy aggregate bandwidth while the naive mount collapses, and after
// the window closes the half-open probes restore baseline throughput.
func TestBrownoutSelfHealing(t *testing.T) {
	naive, naiveBW := brownoutRun(t, false, 0)
	healed, healedBW := brownoutRun(t, true, 2)
	nHealthy, nBrown, _ := BrownoutWindows(naiveBW, 2, 7)
	hHealthy, hBrown, hAfter := BrownoutWindows(healedBW, 2, 7)

	if nHealthy <= 0 || hHealthy <= 0 {
		t.Fatalf("no healthy baseline: naive %.0f healed %.0f", nHealthy, hHealthy)
	}
	// Naive collapses: the browned volume sits on every step's critical
	// path, so delivered bandwidth drops below a quarter of baseline.
	if frac := nBrown / nHealthy; frac >= 0.25 {
		t.Errorf("naive browned BW = %.0f%% of healthy, want < 25%%", 100*frac)
	}
	// Self-healing holds the line: breaker-aware placement and hedged
	// replicated index reads keep >= 60%% of the healthy bandwidth.
	if frac := hBrown / hHealthy; frac < 0.60 {
		t.Errorf("healed browned BW = %.0f%% of healthy, want >= 60%%", 100*frac)
	}
	// Recovery: once the brownout clears and probes close the breaker,
	// throughput returns to baseline.
	if frac := hAfter / hHealthy; frac < 0.60 {
		t.Errorf("healed post-brownout BW = %.0f%% of healthy, want >= 60%%", 100*frac)
	}
	if h, w := hedges(healed); h == 0 || w == 0 {
		t.Errorf("healed run hedged %d wins %d, want both > 0", h, w)
	}
	if h, _ := hedges(naive); h != 0 {
		t.Errorf("naive run hedged %d reads, want 0", h)
	}
	// The breaker actually cycled: volume 0 opened at least once and a
	// probe closed it again by the end of the run.
	g := healed.Service.Gauge
	if g("plfs.health./vol0.opens").Value() == 0 {
		t.Errorf("no breaker opened during the brownout: %v", healed.Service.Snapshot().Gauges)
	}
	if g("plfs.health./vol0.probe_ok").Value() == 0 {
		t.Errorf("breaker never closed via a probe: %v", healed.Service.Snapshot().Gauges)
	}
	// Repair ledger invariant; ticks that met the open breaker deferred
	// their containers.
	if rep := repairLedger(healed); rep[1] != rep[2]+rep[3] || rep[4] == 0 {
		t.Errorf("repair ledger ticks/found/repaired/unrepairable/deferred = %v, want found = repaired + unrepairable and deferred > 0", rep)
	}

	// Virtual-clock determinism: the same seed reproduces the healed run
	// bit-for-bit, counters included.
	again, againBW := brownoutRun(t, true, 2)
	if !slices.Equal(againBW, healedBW) {
		t.Errorf("per-step bandwidth differs across identical runs: %v vs %v", againBW, healedBW)
	}
	ah, aw := hedges(again)
	hh, hw := hedges(healed)
	if ah != hh || aw != hw || repairLedger(again) != repairLedger(healed) {
		t.Errorf("counters differ across identical runs: hedged %d/%d wins %d/%d repair %v/%v",
			ah, hh, aw, hw, repairLedger(again), repairLedger(healed))
	}
}

// repairLedger reads the run's repair counters: ticks, found, repaired,
// unrepairable, deferred.
func repairLedger(r Report) (out [5]int64) {
	for i, f := range []string{"ticks", "found", "repaired", "unrepairable", "deferred"} {
		out[i] = r.Service.Counter("plfs.repair." + f).Value()
	}
	return out
}

// TestFailedRunKeepsServiceLedger: a run that fails part-way still hands
// the service's ledgers to Job.Obs, so its dump shows how far it got.
func TestFailedRunKeepsServiceLedger(t *testing.T) {
	j, _ := Brownout(workloads.Brownout{Steps: 4, OpsPerRank: 2, OpSize: 16 << 10}, 2, 0, 1, 0, 0, plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 2, SpreadContainers: true,
	})
	j.Seed, j.Obs = 3, obs.New()
	step := j.Step
	j.Step = func(l *Live, s int, res workloads.Result) error {
		if err := step(l, s, res); err != nil {
			return err
		}
		if s == 1 {
			panic("stop the run after two repair ticks")
		}
		return nil
	}
	r, err := Run(j)
	if err == nil {
		t.Fatal("a rank panicked, yet the run reports no error")
	}
	snap := j.Obs.Snapshot()
	if got := snap.Counters["plfs.repair.ticks"]; got < 1 {
		t.Errorf("failed run's registry holds plfs.repair.ticks = %d, want the ticks it ran", got)
	}
	if got := snap.Counters["plfs.svc.admitted"]; got == 0 {
		t.Error("failed run's registry holds no admissions")
	}
	if r.Service == nil {
		t.Error("failed run's Report.Service is nil")
	}
}
