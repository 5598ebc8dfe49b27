package plfs_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestServiceRaceStress drives one mount service from many tenants at
// once — mixed creates, writes, reads, cache drops — under a cache budget
// small enough to keep the economy evicting throughout.  It checks the
// service's two end-to-end promises: every successfully written container
// reads back byte-identical (whatever the cache shed meanwhile), and the
// admission ledger read off the service's registry balances (admitted =
// completed + rejected per tenant).
// CI runs it under -race.
func TestServiceRaceStress(t *testing.T) {
	const (
		tenants    = 3
		perTenant  = 4 // goroutines per tenant
		containers = 8 // containers per tenant, one writer goroutine each
		blocks     = 4
		bs         = int64(1024)
	)
	classes := map[string]string{}
	for i := 0; i < tenants; i++ {
		classes[fmt.Sprintf("t%d", i)] = "work"
	}
	svc := plfs.NewService(plfs.ServiceOptions{
		CacheBudgetBytes: 8 << 10, // tiny: force evictions under load
		Classes:          []plfs.ClassConfig{{Name: "work", MaxInFlight: 6, Attempts: 64, Backoff: 10 * time.Microsecond}},
		TenantClass:      classes,
	})
	roots := []string{t.TempDir(), t.TempDir()}
	m := svc.Mount(roots, plfs.Options{NumSubdirs: 2, SpreadContainers: true})
	clock := &fakeClock{}
	ctxFor := func(tenant string) plfs.Ctx {
		vols := make([]plfs.Backend, len(roots))
		for i := range vols {
			vols[i] = osfs.New()
		}
		return plfs.Ctx{Vols: vols, HostLeader: true, Clock: clock, Tenant: tenant}
	}
	name := func(tn, c int) string { return fmt.Sprintf("t%d-c%d", tn, c) }
	tag := func(tn, c int) uint64 { return uint64(tn*1000 + c + 1) }

	var rejected atomic.Int64
	written := make([]atomic.Bool, tenants*containers)

	write := func(ctx plfs.Ctx, tn, c int) {
		w, err := m.Create(ctx, name(tn, c))
		if errors.Is(err, plfs.ErrAdmission) {
			rejected.Add(1)
			return
		}
		if err != nil {
			t.Errorf("create %s: %v", name(tn, c), err)
			return
		}
		for k := 0; k < blocks; k++ {
			off := int64(k) * bs
			if err := w.Write(off, payload.Synthetic(tag(tn, c), off, bs)); err != nil {
				t.Errorf("write %s: %v", name(tn, c), err)
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("close %s: %v", name(tn, c), err)
			return
		}
		written[tn*containers+c].Store(true)
	}
	read := func(ctx plfs.Ctx, tn, c int) {
		if !written[tn*containers+c].Load() {
			return
		}
		r, err := m.OpenReader(ctx, name(tn, c))
		if errors.Is(err, plfs.ErrAdmission) {
			rejected.Add(1)
			return
		}
		if err != nil {
			t.Errorf("open %s: %v", name(tn, c), err)
			return
		}
		defer r.Close()
		total := int64(blocks) * bs
		if r.Size() != total {
			t.Errorf("%s: size %d, want %d", name(tn, c), r.Size(), total)
			return
		}
		got, err := r.ReadAt(0, total)
		if err != nil {
			t.Errorf("read %s: %v", name(tn, c), err)
			return
		}
		want := payload.List{payload.Synthetic(tag(tn, c), 0, total)}
		if !payload.ContentEqual(got, want) {
			t.Errorf("%s: read-back not byte-identical", name(tn, c))
		}
	}

	// Phase 1: every container written by its own goroutine, with
	// interleaved reads of whatever its tenant finished so far and
	// occasional service-wide cache drops.
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(tn, g int) {
				defer wg.Done()
				ctx := ctxFor(fmt.Sprintf("t%d", tn))
				for c := g; c < containers; c += perTenant {
					write(ctx, tn, c)
					read(ctx, tn, (c+perTenant)%containers)
					if c%5 == 0 {
						m.DropIndexCache()
					}
				}
			}(tn, g)
		}
	}
	wg.Wait()

	// Phase 2: cross-tenant read-back of every written container.
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(tn, g int) {
				defer wg.Done()
				ctx := ctxFor(fmt.Sprintf("t%d", tn))
				other := (tn + 1) % tenants
				for c := g; c < containers; c += perTenant {
					read(ctx, tn, c)
					read(ctx, other, c)
				}
			}(tn, g)
		}
	}
	wg.Wait()

	// The ledgers, read as every reader reads them: off the registry.
	reg := svc.Obs()
	var admitted, completed, totalRejected int64
	for tn := 0; tn < tenants; tn++ {
		p := fmt.Sprintf("plfs.svc.tenant.t%d.", tn)
		a, c, r := reg.Counter(p+"admitted").Value(), reg.Counter(p+"completed").Value(), reg.Counter(p+"rejected").Value()
		if a != c+r {
			t.Errorf("tenant t%d: admitted %d != completed %d + rejected %d", tn, a, c, r)
		}
		admitted += a
		completed += c
		totalRejected += r
	}
	if admitted == 0 || completed == 0 {
		t.Fatalf("no operations recorded: admitted %d completed %d", admitted, completed)
	}
	if totalRejected != rejected.Load() {
		t.Errorf("ledger rejected %d, observed %d ErrAdmission returns", totalRejected, rejected.Load())
	}
	used := reg.Gauge("plfs.econ.used_bytes").Value()
	if used < 0 {
		t.Errorf("economy used %v < 0", used)
	}
	var tenantSum float64
	for name, b := range reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "plfs.svc.tenant.") && strings.HasSuffix(name, ".cache_bytes") {
			if b < 0 {
				t.Errorf("%s = %v, want >= 0", name, b)
			}
			tenantSum += b
		}
	}
	if tenantSum != used {
		t.Errorf("tenant bytes sum %v != used %v", tenantSum, used)
	}

	// Phase 3: eviction pressure by construction.  How many evictions the
	// concurrent phases cause depends on goroutine scheduling, so this
	// phase writes and opens fresh containers one at a time, each open
	// caching its built index, until the indexes cached here alone exceed
	// the budget: the economy must have shed something by then.  The
	// lower bound per index is its fixed overhead plus its dropping
	// paths, which is less than the cache charges for it.
	m.DropIndexCache()
	evictions := func() float64 { return svc.Obs().Gauge("plfs.econ.evictions").Value() }
	before := evictions()
	budget := int64(reg.Gauge("plfs.econ.budget_bytes").Value())
	ctx := ctxFor("t0")
	var cached int64
	for i := 0; cached <= budget; i++ {
		if i == 1000 {
			t.Fatalf("%d serial containers cached only %d bytes against a %d-byte budget", i, cached, budget)
		}
		rel := fmt.Sprintf("serial-c%d", i)
		w, err := m.Create(ctx, rel)
		if err != nil {
			t.Fatalf("create %s: %v", rel, err)
		}
		if err := w.Write(0, payload.Synthetic(uint64(i+1), 0, bs)); err != nil {
			t.Fatalf("write %s: %v", rel, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close %s: %v", rel, err)
		}
		r, err := m.OpenReader(ctx, rel)
		if err != nil {
			t.Fatalf("open %s: %v", rel, err)
		}
		cached += 160
		for _, d := range r.Index().Droppings() {
			cached += int64(len(d)) + 16
		}
		if err := r.Close(); err != nil {
			t.Fatalf("close reader %s: %v", rel, err)
		}
	}
	if after := evictions(); after == before {
		t.Errorf("no evictions after caching at least %d index bytes under a %d-byte budget; pressure counters dead?",
			cached, budget)
	}
	// The economy's gauges are read from the economy itself, not left at
	// an earlier reading.
	if got, want := svc.Obs().Gauge("plfs.econ.used_bytes").Value(), plfs.EconomyUsed(m); got != float64(want) {
		t.Errorf("used_bytes gauge %v after evictions, economy holds %d", got, want)
	}
	if peak := reg.Gauge("plfs.svc.class.work.peak_inflight").Value(); peak < 1 || peak > 6 {
		t.Errorf("class work peak in flight %v, want within [1, 6]", peak)
	}
	if n := plfs.GateInFlight(svc, "work"); n != 0 {
		t.Errorf("class work still has %d in flight after quiescence", n)
	}
}
