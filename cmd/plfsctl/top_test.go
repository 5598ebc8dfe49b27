package main_test

// plfsctl top and plfsctl health render a -metrics dump.  These tests
// feed them dumps of small mount-service runs, written the way plfsrun
// writes them, and one dump built by hand, and check the rows an
// operator reads: the TENANT table, the economy line, the per-volume
// breaker table and the repair ledger.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plfs/internal/harness"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// runDump runs j with a registry attached and writes its dump.
func runDump(t *testing.T, j harness.Job) string {
	t.Helper()
	j.Seed, j.Obs = 1, obs.New()
	if _, err := harness.Run(j); err != nil {
		t.Fatalf("run: %v", err)
	}
	return writeDump(t, j.Obs)
}

func writeDump(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantLines fails unless out holds each line, compared with runs of
// spaces collapsed.
func wantLines(t *testing.T, cmd, out string, lines ...string) {
	t.Helper()
	have := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		have[strings.Join(strings.Fields(l), " ")] = true
	}
	for _, l := range lines {
		if !have[l] {
			t.Errorf("plfsctl %s: no line %q in\n%s", cmd, l, out)
		}
	}
}

func TestTopAndHealthCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildPlfsctl(t)
	render := func(cmd, dump string) string {
		t.Helper()
		out, code := runCtl(t, bin, cmd, dump)
		if code != 0 {
			t.Fatalf("plfsctl %s: exit %d\n%s", cmd, code, out)
		}
		return out
	}

	t.Run("tenants", func(t *testing.T) {
		// Two tenants of four ranks, two containers each, under a batch
		// cap of four: every operation is admitted at once.
		k := workloads.Saturation{Containers: 2, OpsPerRank: 16, OpSize: 64 << 10}
		dump := runDump(t, harness.Tenants(pfs.SmallCluster(), 2, 4, k, 4, 256<<20))
		wantLines(t, "top", render("top", dump),
			"TENANT ADMITTED COMPLETED REJECTED RETRIES CACHE(KB)",
			"t0 4 4 0 0 2.7",
			"t1 4 4 0 0 2.7",
			"economy: used 5/262144 KB, evicted 0 entries (0 KB)")
		wantLines(t, "health", render("health", dump),
			"VOLUME STATE P99(ms) OPENS PROBES PROBE_OK FAILURES SLOW_OPS",
			"/vol0 open 0.212 1 0 0 0 16",
			"repair: ticks 0 found 0 = repaired 0 + unrepairable 0 (deferred 0)")
	})

	t.Run("brownout", func(t *testing.T) {
		// Volume 0 browns out 256x over steps [2,7) of ten while a repair
		// tick runs at every step boundary.
		j, _ := harness.Brownout(workloads.Brownout{Steps: 10, OpsPerRank: 8, OpSize: 64 << 10}, 4, 0, 256, 2, 7, plfs.Options{
			IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
			SpreadContainers: true, SpreadSubdirs: true,
			HedgedReads: true, IndexReplicas: 2,
		})
		dump := runDump(t, j)
		wantLines(t, "top", render("top", dump),
			"TENANT ADMITTED COMPLETED REJECTED RETRIES CACHE(KB)",
			"default 29 29 0 0 7.9",
			"economy: used 8/262144 KB, evicted 0 entries (0 KB)")
		wantLines(t, "health", render("health", dump),
			"VOLUME STATE P99(ms) OPENS PROBES PROBE_OK FAILURES SLOW_OPS",
			"/vol0 closed 4.210 6 6 1 2 30",
			"/vol1 closed 4.210 0 0 0 0 0",
			"/vol3 closed 4.210 0 0 0 0 0",
			"hedging: hedged 6 hedge_wins 5 failover 0 replica_deferred 5 replica_write_errors 0",
			"repair: ticks 9 found 5 = repaired 5 + unrepairable 0 (deferred 24)")
	})

	t.Run("dotted-tenant", func(t *testing.T) {
		// A tenant name may hold dots: the field is the last segment.
		reg := obs.New()
		reg.Counter("plfs.svc.tenant.team.a.admitted").Add(3)
		reg.Counter("plfs.svc.tenant.team.a.completed").Add(2)
		reg.Counter("plfs.svc.tenant.team.a.rejected").Add(1)
		reg.Counter("plfs.svc.tenant.b.admitted").Add(1)
		reg.Gauge("plfs.svc.tenant.team.a.cache_bytes").Set(2048)
		reg.Gauge("plfs.econ.budget_bytes").Set(1 << 20)
		reg.Gauge("plfs.econ.used_bytes").Set(2048)
		wantLines(t, "top", render("top", writeDump(t, reg)),
			"team.a 3 2 1 0 2.0",
			"b 1 0 0 0 0.0",
			"economy: used 2/1024 KB, evicted 0 entries (0 KB)")
	})
}
