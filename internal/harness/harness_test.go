package harness_test

import (
	"math"
	"strings"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/harness"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// TestAllFiguresRunQuick smoke-runs every figure and ablation at Quick
// scale with a single repetition: every experiment must complete and
// produce non-empty tables with the expected series, and every figure
// that does not keep registries of its own must reach the suite's
// registry (plfsbench -metrics).
func TestAllFiguresRunQuick(t *testing.T) {
	for _, fig := range harness.Figures() {
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			reg := obs.New()
			reg.SetSpanLimit(0)
			tabs, err := fig.Run(harness.Options{Scale: harness.Quick, Reps: 1, Obs: reg})
			if err != nil {
				t.Fatalf("%s: %v", fig.ID, err)
			}
			if len(tabs) == 0 {
				t.Fatalf("%s produced no tables", fig.ID)
			}
			for _, tab := range tabs {
				if len(tab.Points()) == 0 {
					t.Fatalf("%s: empty table %q", fig.ID, tab.Title)
				}
				for _, p := range tab.Points() {
					if p.N < 1 {
						t.Fatalf("%s: point with no observations: %+v", fig.ID, p)
					}
				}
			}
			snap := reg.Snapshot()
			if got := len(snap.Counters) + len(snap.Gauges); got == 0 && !fig.OwnObs {
				t.Errorf("%s left nothing in the suite registry", fig.ID)
			}
		})
	}
}

// TestSuiteDumpSumsServiceLedger: a figure suite's registry carries the
// service ledger of every run, not of the last one: the admission
// counters of ablation-tenants' dump add up to the admissions its cells
// count over all its runs.
func TestSuiteDumpSumsServiceLedger(t *testing.T) {
	fig, _ := harness.FindFigure("ablation-tenants")
	reg := obs.New()
	reg.SetSpanLimit(0)
	tabs, err := fig.Run(harness.Options{Scale: harness.Quick, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var runs, want float64
	for _, p := range tabs[2].Points() {
		if p.Series == "admitted" {
			runs += float64(p.N)
			want += math.Round(p.Mean * float64(p.N))
		}
	}
	snap := reg.Snapshot()
	var perTenant int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "plfs.svc.tenant.") && strings.HasSuffix(name, ".admitted") {
			perTenant += v
		}
	}
	if want == 0 || runs < 2 {
		t.Fatalf("%v admissions over %v runs: nothing to sum", want, runs)
	}
	if got := snap.Counters["plfs.svc.admitted"]; float64(got) != want || float64(perTenant) != want {
		t.Errorf("dump counts %d admissions (%d over the tenants), the cells %v over %v runs", got, perTenant, want, runs)
	}
}

func TestFindFigure(t *testing.T) {
	if _, ok := harness.FindFigure("fig4"); !ok {
		t.Fatal("fig4 not found")
	}
	if _, ok := harness.FindFigure("nope"); ok {
		t.Fatal("bogus figure found")
	}
}

// TestApply pins the one place suite-wide flags reach a job: each flag
// fills what the job leaves unset and never overrides what it pins.
func TestApply(t *testing.T) {
	suiteFault, ownFault := &fault.Spec{Seed: 1}, &fault.Spec{Seed: 2}
	suiteObs, ownObs := obs.New(), obs.New()
	o := harness.Options{
		Backend: harness.BackendObjfs, Fault: suiteFault, Obs: suiteObs,
		Retry: plfs.RetryPolicy{Attempts: 6},
	}
	pinned := harness.Job{
		Backend: harness.BackendPosix, Fault: ownFault, Obs: ownObs,
		Opt: plfs.Options{Retry: plfs.RetryPolicy{Attempts: 12}},
	}
	for _, tc := range []struct {
		name string
		in   harness.Job
		want harness.Job
	}{
		{"unset takes the suite's", harness.Job{}, harness.Job{
			Backend: harness.BackendObjfs, Fault: suiteFault, Obs: suiteObs,
			Opt: plfs.Options{Retry: plfs.RetryPolicy{Attempts: 6}},
		}},
		{"pinned keeps its own", pinned, pinned},
	} {
		got := o.Apply(tc.in)
		if got.Backend != tc.want.Backend || got.Fault != tc.want.Fault || got.Obs != tc.want.Obs ||
			got.Opt.Retry != tc.want.Opt.Retry {
			t.Errorf("%s: Apply = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if got := (harness.Options{}).Apply(harness.Job{}); got.Backend != "" || got.Fault != nil || got.Obs != nil {
		t.Errorf("zero options changed a job: %+v", got)
	}
}

// TestRunRejectsEmptyJob checks that a job or tenant with no ranks is an
// error, not a panic in the world's construction.
func TestRunRejectsEmptyJob(t *testing.T) {
	k := workloads.MPIIOTest(1<<20, 64<<10)
	for _, j := range []harness.Job{
		{Ranks: 0, Cfg: pfs.SmallCluster(), Kernel: k},
		{Cfg: pfs.SmallCluster(), Tenants: []harness.Tenant{{Ranks: 2, Kernel: k, Path: "a"}, {Ranks: -1, Kernel: k, Path: "b"}}},
	} {
		if _, err := harness.Run(j); err == nil {
			t.Errorf("Run(%d ranks, %d tenants) = nil error", j.Ranks, len(j.Tenants))
		}
	}
}
