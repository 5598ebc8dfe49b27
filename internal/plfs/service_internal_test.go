package plfs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"plfs/internal/localcomm"
	"plfs/internal/obs"
)

// recSleeper records requested sleeps (the admission backoff is charged
// through the context's Sleeper, so the schedule is directly observable).
type recSleeper struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *recSleeper) Sleep(d time.Duration) {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
}

func TestAdmissionGateLedger(t *testing.T) {
	svc := NewService(ServiceOptions{
		Classes:     []ClassConfig{{Name: "batch", MaxInFlight: 2, Attempts: 3, Backoff: time.Millisecond}},
		TenantClass: map[string]string{"a": "batch"},
	})
	sl := &recSleeper{}
	ctx := Ctx{Tenant: "a", Sleep: sl}

	d1, err := svc.admit(ctx, "open")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := svc.admit(ctx, "open")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.admit(ctx, "open"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("full gate: err = %v, want ErrAdmission", err)
	}
	// Attempts=3 means two retries, with doubled backoff between tries.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(sl.slept) != len(want) || sl.slept[0] != want[0] || sl.slept[1] != want[1] {
		t.Fatalf("backoff schedule = %v, want %v", sl.slept, want)
	}

	d1()
	d3, err := svc.admit(ctx, "open")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	d2()
	d3()

	reg := svc.Obs()
	if got := ledger(reg, "a"); got != [4]int64{4, 3, 1, 2} {
		t.Fatalf("ledger admitted/completed/rejected/retries = %v, want [4 3 1 2]", got)
	}
	if got := ledger(reg, ""); got != [4]int64{4, 3, 1, 2} {
		t.Fatalf("aggregate ledger = %v, want [4 3 1 2]", got)
	}
	if got := reg.Gauge("plfs.svc.class.batch.peak_inflight").Value(); got != 2 {
		t.Fatalf("batch peak in flight = %v, want 2", got)
	}
	if got := GateInFlight(svc, "batch"); got != 0 {
		t.Fatalf("batch in flight = %d after every ticket was released, want 0", got)
	}
}

// ledger reads one tenant's admission counters (the aggregate ones for
// tenant "") as admitted, completed, rejected, retries.
func ledger(reg *obs.Registry, tenant string) (out [4]int64) {
	p := "plfs.svc."
	if tenant != "" {
		p += "tenant." + tenant + "."
	}
	for i, f := range []string{"admitted", "completed", "rejected", "retries"} {
		out[i] = reg.Counter(p + f).Value()
	}
	return out
}

func TestAdmissionUnmappedTenantUngated(t *testing.T) {
	// No "" class declared: tenants outside TenantClass run ungated.
	svc := NewService(ServiceOptions{
		Classes:     []ClassConfig{{Name: "batch", MaxInFlight: 1, Attempts: 1}},
		TenantClass: map[string]string{"a": "batch"},
	})
	sl := &recSleeper{}
	for i := 0; i < 10; i++ {
		d, err := svc.admit(Ctx{Tenant: "z", Sleep: sl}, "open")
		if err != nil {
			t.Fatalf("ungated admit %d: %v", i, err)
		}
		defer d()
	}
	if len(sl.slept) != 0 {
		t.Fatalf("ungated tenant slept: %v", sl.slept)
	}
}

func TestAdmissionDefaultClass(t *testing.T) {
	// A declared "" class catches every unmapped tenant.
	svc := NewService(ServiceOptions{
		Classes: []ClassConfig{{Name: "", MaxInFlight: 1, Attempts: 1}},
	})
	d, err := svc.admit(Ctx{Tenant: "z"}, "open")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.admit(Ctx{Tenant: "y"}, "open"); !errors.Is(err, ErrAdmission) {
		t.Fatalf("default class did not gate unmapped tenant: %v", err)
	}
	d()
}

// TestCollectiveAdmissionFailsTogether pins the collective protocol: rank
// 0 admits once and broadcasts the verdict, so either every rank proceeds
// or every rank returns ErrAdmission — no rank is left stranded in a
// collective because a peer was turned away.
func TestCollectiveAdmissionFailsTogether(t *testing.T) {
	svc := NewService(ServiceOptions{
		Classes:     []ClassConfig{{Name: "batch", MaxInFlight: 1, Attempts: 1}},
		TenantClass: map[string]string{"a": "batch"},
	})
	m := svc.Mount([]string{t.TempDir()}, Options{})
	reg := obs.New()

	hold, err := svc.admit(Ctx{Tenant: "a"}, "open")
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	run := func() []error {
		comms := localcomm.New(n)
		errs := make([]error, n)
		dones := make([]func(), n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dones[i], errs[i] = m.admit(Ctx{Tenant: "a", Comm: comms[i], Obs: reg}, "open")
			}(i)
		}
		wg.Wait()
		for _, d := range dones {
			if d != nil {
				d()
			}
		}
		return errs
	}

	for i, err := range run() {
		if !errors.Is(err, ErrAdmission) {
			t.Fatalf("rank %d: err = %v, want ErrAdmission on every rank", i, err)
		}
	}
	hold()
	for i, err := range run() {
		if err != nil {
			t.Fatalf("rank %d after release: %v", i, err)
		}
	}

	// The collective counts once (rank 0), not once per rank: the held
	// ticket plus one rejected and one completed collective.
	if got := ledger(svc.Obs(), "a"); got != [4]int64{3, 2, 1, 0} {
		t.Fatalf("ledger admitted/completed/rejected/retries = %v, want [3 2 1 0]", got)
	}
	if got := reg.Snapshot().Counters; len(got) != 0 {
		t.Fatalf("the ranks' own registry counted %v; the ledger lives in the service's", got)
	}
}
