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
	"sync"
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

	// reg is the one home of the service's numbers: the admission and
	// repair ledgers as counters, recorded where they happen, and the
	// economy, gate and breaker state as gauges, written by Obs.
	reg *obs.Registry
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

// NewService creates a mount service.
func NewService(opt ServiceOptions) *Service {
	opt = opt.withDefaults()
	s := &Service{
		opt:    opt,
		econ:   newEconomy(opt.CacheBudgetBytes),
		health: NewHealth(),
		gates:  map[string]*gate{},
		reg:    obs.New(),
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

// admit passes one operation through the tenant's class gate, counting
// it as admitted; the returned release marks it completed.  A full gate
// retries with doubled Sleeper-charged backoff and rejects when the
// attempts run out, so every admitted operation ends as exactly one of
// completed or — never — both, and admitted = completed + rejected holds
// over any quiescent window.
func (s *Service) admit(ctx Ctx, op string) (func(), error) {
	tenant := tenantName(ctx.Tenant)
	s.count(tenant, "admitted")
	g := s.gateFor(ctx.Tenant)
	done := func() {
		if g != nil {
			g.release()
		}
		s.count(tenant, "completed")
	}
	if g == nil || g.tryAcquire() {
		return done, nil
	}
	backoff := g.cfg.backoff()
	for attempt := 1; attempt < g.cfg.attempts(); attempt++ {
		s.count(tenant, "retries")
		ctx.sleep(backoff)
		backoff *= 2
		if g.tryAcquire() {
			return done, nil
		}
	}
	s.count(tenant, "rejected")
	return nil, fmt.Errorf("plfs: %s: tenant %q over class in-flight limit (%d): %w",
		op, tenant, g.cfg.MaxInFlight, ErrAdmission)
}

// count bumps the aggregate and per-tenant admission counters.
func (s *Service) count(tenant, what string) {
	s.reg.Counter("plfs.svc." + what).Add(1)
	s.reg.Counter("plfs.svc.tenant." + tenant + "." + what).Add(1)
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

// Obs returns the service's registry, the one place its numbers are
// read.  Ledgers are counters under their event names:
// plfs.svc.{admitted,completed,rejected,retries} and the same per tenant
// under plfs.svc.tenant.<t>., each balancing admitted = completed +
// rejected over any quiescent window, and plfs.repair.{ticks,found,
// repaired,unrepairable,deferred}, balancing found = repaired +
// unrepairable (deferred, the work skipped because a volume's breaker
// was not closed, stands outside that ledger).  State is gauges, written from the live structures on
// each call: the economy (plfs.econ.*, plfs.svc.tenant.<t>.cache_bytes),
// each class's plfs.svc.class.<c>.peak_inflight and the breaker table
// (plfs.health.*).
func (s *Service) Obs() *obs.Registry {
	s.econ.publish(s.reg)
	for name, g := range s.gates {
		if name == "" {
			name = defaultTenant
		}
		g.mu.Lock()
		s.reg.Gauge("plfs.svc.class." + name + ".peak_inflight").Set(float64(g.peak))
		g.mu.Unlock()
	}
	s.health.Publish(s.reg)
	return s.reg
}
