package harness

import (
	"testing"
	"time"

	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// TestTenantIndependence is the service's isolation acceptance test: a
// small interactive tenant's p99 container-open time must stay within 2x
// of its unloaded baseline while a gated batch tenant hammers unrelated
// containers on the same service.  Everything runs on the virtual clock,
// so both sides of the comparison are deterministic in the seed.
func TestTenantIndependence(t *testing.T) {
	probe := Tenant{Name: "probe", Ranks: 2, Path: "sat-probe",
		Kernel: workloads.Saturation{Containers: 4, OpsPerRank: 4, OpSize: 16 << 10}}
	bulk := Tenant{Name: "bulk", Ranks: 8, Path: "sat-bulk",
		Kernel: workloads.Saturation{Containers: 6, OpsPerRank: 16, OpSize: 256 << 10}}
	svc := plfs.ServiceOptions{
		CacheBudgetBytes: 16 << 20,
		Classes: []plfs.ClassConfig{
			{Name: "interactive", MaxInFlight: 8},
			{Name: "batch", MaxInFlight: 2},
		},
		TenantClass: map[string]string{"probe": "interactive", "bulk": "batch"},
	}
	run := func(tenants ...Tenant) Report {
		t.Helper()
		r, err := Run(Job{
			Seed: 7, Cfg: pfs.SmallCluster(), Svc: &svc, Tenants: tenants,
			Opt:     plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4},
			UsePLFS: true, ReadBack: true, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// The probe is the last tenant of every run.
	type outcome struct {
		p99      time.Duration
		opens    int64
		rejected int64
	}
	probeOf := func(r Report) outcome {
		t.Helper()
		p99, opens := OpenP99(r.Obs[len(r.Obs)-1])
		if r.Service.Counter("plfs.svc.tenant.probe.admitted").Value() == 0 {
			t.Fatal("probe tenant missing from the admission ledger")
		}
		return outcome{p99, opens, r.Service.Counter("plfs.svc.tenant.probe.rejected").Value()}
	}

	base := probeOf(run(probe))
	if base.opens == 0 || base.p99 <= 0 {
		t.Fatalf("baseline probe recorded no opens: %+v", base)
	}
	if base.rejected != 0 {
		t.Fatalf("baseline probe rejected %d ops on an idle service", base.rejected)
	}

	loadedRep := run(bulk, probe)
	loaded := probeOf(loadedRep)
	if loaded.rejected != 0 {
		t.Fatalf("probe rejected %d ops; the interactive class must not starve", loaded.rejected)
	}
	if limit := 2 * base.p99; loaded.p99 > limit {
		t.Fatalf("probe p99 open %v under bulk load, want <= %v (2x unloaded %v)",
			loaded.p99, limit, base.p99)
	}

	// Virtual-clock determinism: the same seed reproduces the loaded run
	// bit-for-bit.
	again := run(bulk, probe)
	if again.Makespan != loadedRep.Makespan || again.Bytes != loadedRep.Bytes ||
		worstP99(again, 0) != worstP99(loadedRep, 0) {
		t.Fatalf("nondeterministic run: makespan %v vs %v, bytes %d vs %d, worst p99 %v vs %v",
			again.Makespan, loadedRep.Makespan, again.Bytes, loadedRep.Bytes,
			worstP99(again, 0), worstP99(loadedRep, 0))
	}
	if a := probeOf(again); a != loaded {
		t.Fatalf("probe outcome differs across identical runs: %+v vs %+v", a, loaded)
	}
}
