package plfs

// This file implements the mount service: one long-lived process serving
// many tenants' containers at once.  The paper's premise is PLFS as
// shared transformative middleware, where metadata and index pressure —
// not data bandwidth — set the scaling wall; a service therefore needs
// three things a single-job mount does not: per-container concurrency
// that never serializes unrelated containers (the sharded state table in
// mount.go), one cache economy budgeting every tenant's resident bytes
// (economy.go), and admission control so a 32k-rank create storm cannot
// starve a small interactive job (the per-class gates here).  See
// DESIGN.md §14.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"plfs/internal/obs"
)

// ErrAdmission is the sentinel wrapped by operations the admission gate
// rejected after exhausting their backoff attempts.
var ErrAdmission = errors.New("admission rejected")

// ClassConfig bounds one admission class's concurrent operations.
type ClassConfig struct {
	// Name identifies the class ("" is the default class, used by every
	// tenant without an explicit TenantClass mapping).
	Name string
	// MaxInFlight caps the class's concurrently admitted operations
	// (a collective operation counts once, admitted by its root rank);
	// 0 means unlimited.
	MaxInFlight int
	// Attempts is the number of admission tries before rejecting
	// (default 8).  Backoff is the wait before the second try, doubling
	// each attempt; it is charged through the context's Sleeper —
	// virtual time under the simulator (deterministic in the seed, like
	// the retry machinery), real sleep over osfs.  Default 200µs.
	Attempts int
	Backoff  time.Duration
}

func (c ClassConfig) attempts() int {
	if c.Attempts <= 0 {
		return 8
	}
	return c.Attempts
}

func (c ClassConfig) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 200 * time.Microsecond
	}
	return c.Backoff
}

// ServiceOptions configure a mount service.
type ServiceOptions struct {
	// CacheBudgetBytes bounds the resident bytes of everything the
	// service's mounts cache — built global indexes and parsed index
	// shards, across all containers and tenants (default 256 MiB).
	CacheBudgetBytes int64
	// Classes declares the admission classes.  With no classes every
	// operation is admitted immediately (the gate only counts).
	Classes []ClassConfig
	// TenantClass maps a tenant name to its admission class; unmapped
	// tenants use the "" class when declared, else run ungated.
	TenantClass map[string]string
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if o.CacheBudgetBytes <= 0 {
		o.CacheBudgetBytes = 256 << 20
	}
	return o
}

// Service is a multi-tenant mount service: it owns the shared cache
// economy and admission gates, and builds the Mounts that share them.
// One Service per process serves any number of mounts, tenants, and
// containers concurrently.
type Service struct {
	opt    ServiceOptions
	econ   *economy
	health *Health // per-volume breakers, shared by every mount

	gates map[string]*gate // by class name; immutable after NewService

	mu      sync.Mutex
	tenants map[string]*tenantStats

	// Repair ledger: every problem the repair daemon (or plfsctl scrub
	// -repair) finds ends up as exactly one of repaired or unrepairable,
	// so found = repaired + unrepairable over any quiescent window.
	repairTicks        atomic.Int64
	repairFound        atomic.Int64
	repairRepaired     atomic.Int64
	repairUnrepairable atomic.Int64
	repairDeferred     atomic.Int64
}

// gate is one class's in-flight-operation semaphore.  Admission is
// try-acquire with bounded, Sleeper-charged backoff rather than a
// blocking semaphore, so it stays deterministic under the discrete-event
// virtual clock (blocking on a host mutex would never appear in virtual
// time).
type gate struct {
	cfg ClassConfig

	mu       sync.Mutex
	inflight int
	peak     int
}

func (g *gate) tryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.MaxInFlight > 0 && g.inflight >= g.cfg.MaxInFlight {
		return false
	}
	g.inflight++
	if g.inflight > g.peak {
		g.peak = g.inflight
	}
	return true
}

func (g *gate) release() {
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}

type tenantStats struct {
	admitted  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	retries   atomic.Int64
}

// NewService creates a mount service.
func NewService(opt ServiceOptions) *Service {
	opt = opt.withDefaults()
	s := &Service{
		opt:     opt,
		econ:    newEconomy(opt.CacheBudgetBytes),
		health:  NewHealth(),
		gates:   map[string]*gate{},
		tenants: map[string]*tenantStats{},
	}
	for _, c := range opt.Classes {
		s.gates[c.Name] = &gate{cfg: c}
	}
	return s
}

// Mount attaches a mount to the service: it shares the service's cache
// economy, admission gates, and per-volume health table.
func (s *Service) Mount(roots []string, opt Options) *Mount {
	return newMount(roots, opt, s)
}

// Health returns the service's shared per-volume breaker table.
func (s *Service) Health() *Health { return s.health }

// gateFor resolves a tenant's admission gate (nil = ungated).
func (s *Service) gateFor(tenant string) *gate {
	class := ""
	if s.opt.TenantClass != nil {
		if c, ok := s.opt.TenantClass[tenantName(tenant)]; ok {
			class = c
		}
	}
	return s.gates[class]
}

func (s *Service) tenantStats(tenant string) *tenantStats {
	tenant = tenantName(tenant)
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[tenant] = ts
	}
	return ts
}

// admit passes one operation through the tenant's class gate, counting
// it as admitted; the returned release marks it completed.  A full gate
// retries with doubled Sleeper-charged backoff and rejects when the
// attempts run out, so every admitted operation ends as exactly one of
// completed or — never — both, and admitted = completed + rejected holds
// over any quiescent window.
func (s *Service) admit(ctx Ctx, op string) (func(), error) {
	tenant := tenantName(ctx.Tenant)
	ts := s.tenantStats(tenant)
	ts.admitted.Add(1)
	count(ctx.Obs, tenant, "admitted")
	g := s.gateFor(ctx.Tenant)
	done := func() {
		if g != nil {
			g.release()
		}
		ts.completed.Add(1)
		count(ctx.Obs, tenant, "completed")
	}
	if g == nil || g.tryAcquire() {
		return done, nil
	}
	backoff := g.cfg.backoff()
	for attempt := 1; attempt < g.cfg.attempts(); attempt++ {
		ts.retries.Add(1)
		count(ctx.Obs, tenant, "retries")
		ctx.sleep(backoff)
		backoff *= 2
		if g.tryAcquire() {
			return done, nil
		}
	}
	ts.rejected.Add(1)
	count(ctx.Obs, tenant, "rejected")
	return nil, fmt.Errorf("plfs: %s: tenant %q over class in-flight limit (%d): %w",
		op, tenant, g.cfg.MaxInFlight, ErrAdmission)
}

// count bumps the aggregate and per-tenant admission counters.
func count(reg *obs.Registry, tenant, what string) {
	if reg == nil {
		return
	}
	reg.Counter("plfs.svc." + what).Add(1)
	reg.Counter("plfs.svc.tenant." + tenant + "." + what).Add(1)
}

// admit gates one mount operation.  Standalone mounts are ungated.  A
// collective operation is admitted once, by rank 0, and the verdict is
// broadcast so every rank proceeds — or fails — together; per-rank
// admission would strand admitted ranks in the collective when a peer
// is rejected.
func (m *Mount) admit(ctx Ctx, op string) (func(), error) {
	if m.svc == nil {
		return func() {}, nil
	}
	if ctx.Comm == nil {
		return m.svc.admit(ctx, op)
	}
	var done func()
	var res any
	if ctx.Comm.Rank() == 0 {
		d, err := m.svc.admit(ctx, op)
		done = d
		res = errToStr(err)
	}
	if s := ctx.Comm.Bcast(0, admitTag, res); s != nil {
		if done != nil {
			// Unreachable today (rank 0 broadcast its own verdict), but
			// keep the ticket from leaking if the protocol ever changes.
			done()
		}
		return nil, fmt.Errorf("%s: %w", s.(string), ErrAdmission)
	}
	if done == nil {
		done = func() {}
	}
	return done, nil
}

// admitTag is the collective tag of the admission verdict broadcast.
const admitTag = 23

// ServiceStats is a point-in-time snapshot of the service.
type ServiceStats struct {
	Economy EconomyStats
	Tenants []TenantAdmission
	Classes []ClassStats
	Repair  RepairTotals
	Health  []VolHealth
}

// RepairTotals is the service's lifetime repair ledger.  Over any
// quiescent window Found = Repaired + Unrepairable.
type RepairTotals struct {
	Ticks        int64
	Found        int64
	Repaired     int64
	Unrepairable int64
	// Deferred counts work items skipped because their volume's breaker
	// was not closed — not part of the found ledger (nothing was
	// diagnosed), just a measure of how much the scrubber is steering.
	Deferred int64
}

// TenantAdmission is one tenant's admission ledger.  Over any quiescent
// window Admitted = Completed + Rejected.
type TenantAdmission struct {
	Tenant    string
	Admitted  int64
	Completed int64
	Rejected  int64
	Retries   int64
}

// ClassStats is one admission class's gate occupancy.
type ClassStats struct {
	Name         string
	MaxInFlight  int
	InFlight     int
	PeakInFlight int
}

// Stats snapshots the service's economy, tenant, and gate state.
func (s *Service) Stats() ServiceStats {
	out := ServiceStats{
		Economy: s.econ.stats(),
		Repair: RepairTotals{
			Ticks:        s.repairTicks.Load(),
			Found:        s.repairFound.Load(),
			Repaired:     s.repairRepaired.Load(),
			Unrepairable: s.repairUnrepairable.Load(),
			Deferred:     s.repairDeferred.Load(),
		},
		Health: s.health.Snapshot(),
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		ts := s.tenants[t]
		out.Tenants = append(out.Tenants, TenantAdmission{
			Tenant:    t,
			Admitted:  ts.admitted.Load(),
			Completed: ts.completed.Load(),
			Rejected:  ts.rejected.Load(),
			Retries:   ts.retries.Load(),
		})
	}
	s.mu.Unlock()
	cnames := make([]string, 0, len(s.gates))
	for c := range s.gates {
		cnames = append(cnames, c)
	}
	sort.Strings(cnames)
	for _, c := range cnames {
		g := s.gates[c]
		g.mu.Lock()
		out.Classes = append(out.Classes, ClassStats{
			Name: c, MaxInFlight: g.cfg.MaxInFlight,
			InFlight: g.inflight, PeakInFlight: g.peak,
		})
		g.mu.Unlock()
	}
	return out
}

// Publish snapshots the service state into a registry as gauges —
// idempotent (Set, not Add), so it can run after every phase.  Counter-
// style admission totals already stream through each operation's
// ctx.Obs; these gauges add the economy and gate views plfsctl top's
// tenant section renders.
func (s *Service) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := s.Stats()
	reg.Gauge("plfs.econ.budget_bytes").Set(float64(st.Economy.BudgetBytes))
	reg.Gauge("plfs.econ.used_bytes").Set(float64(st.Economy.UsedBytes))
	reg.Gauge("plfs.econ.evictions").Set(float64(st.Economy.Evictions))
	reg.Gauge("plfs.econ.evicted_bytes").Set(float64(st.Economy.EvictedBytes))
	for _, t := range st.Economy.TenantBytes {
		reg.Gauge("plfs.svc.tenant." + t.Tenant + ".cache_bytes").Set(float64(t.Bytes))
	}
	// The admission ledger also streams as counters through each op's own
	// ctx.Obs; re-publishing it here as gauges makes one registry (e.g.
	// plfsrun -tenants -metrics) carry the whole service view even when
	// the ops reported to per-tenant registries.
	for _, t := range st.Tenants {
		p := "plfs.svc.tenant." + t.Tenant + "."
		reg.Gauge(p + "admitted").Set(float64(t.Admitted))
		reg.Gauge(p + "completed").Set(float64(t.Completed))
		reg.Gauge(p + "rejected").Set(float64(t.Rejected))
		reg.Gauge(p + "retries").Set(float64(t.Retries))
	}
	for _, c := range st.Classes {
		name := c.Name
		if name == "" {
			name = defaultTenant
		}
		reg.Gauge("plfs.svc.class." + name + ".peak_inflight").Set(float64(c.PeakInFlight))
	}
	reg.Gauge("plfs.repair.ticks").Set(float64(st.Repair.Ticks))
	reg.Gauge("plfs.repair.found").Set(float64(st.Repair.Found))
	reg.Gauge("plfs.repair.repaired").Set(float64(st.Repair.Repaired))
	reg.Gauge("plfs.repair.unrepairable").Set(float64(st.Repair.Unrepairable))
	reg.Gauge("plfs.repair.deferred").Set(float64(st.Repair.Deferred))
	s.health.Publish(reg)
}
