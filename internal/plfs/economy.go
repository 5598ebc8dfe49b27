package plfs

import (
	"sync"
	"sync/atomic"

	"plfs/internal/obs"
)

// economy is the cache budget shared by everything a mount service keeps
// resident on behalf of its tenants: per-container state (containerState)
// — parsed index shards, the built global index, and fixed bookkeeping.
// One byte budget covers every mount the economy serves, so a tenant that
// touches ten thousand containers squeezes cold state out instead of
// growing the process without bound.
//
// Charging is cheap (one mutex, two map updates); reclaiming is the rare
// path.  When a charge pushes usage over budget, the charger calls
// rebalance, which asks each mount to shed least-recently-used idle
// container states until usage fits again.  Charges are attributed to the
// tenant that caused the bytes to become resident, so per-tenant usage
// is visible to plfsctl and the saturation harness.
type economy struct {
	budget int64
	tick   atomic.Uint64 // shared LRU clock across all member mounts

	mu   sync.Mutex
	used int64
	// tenants holds resident bytes by tenant.  A tenant whose bytes all
	// left stays at 0, so its gauge reads 0, not its last value.
	tenants map[string]int64
	mounts  []*Mount // append-only, so rebalance may range over a snapshot

	// Eviction-pressure counters: states and bytes shed by rebalance.
	evictions    atomic.Int64
	evictedBytes atomic.Int64
}

// defaultTenant labels charges from contexts that carry no tenant.
const defaultTenant = "default"

func tenantName(t string) string {
	if t == "" {
		return defaultTenant
	}
	return t
}

func newEconomy(budget int64) *economy {
	return &economy{budget: budget, tenants: map[string]int64{}}
}

// register adds a mount to the reclaim rotation.
func (e *economy) register(m *Mount) {
	e.mu.Lock()
	e.mounts = append(e.mounts, m)
	e.mu.Unlock()
}

// next advances the shared LRU clock.
func (e *economy) next() uint64 { return e.tick.Add(1) }

// charge attributes n resident bytes to tenant; a negative n returns
// bytes charged earlier.  The economy's lock is a leaf, so callers holding
// shard or state locks may charge freely; they must call rebalance only
// after releasing them (it re-enters every member mount's state table).
func (e *economy) charge(tenant string, n int64) {
	if n == 0 {
		return
	}
	tenant = tenantName(tenant)
	e.mu.Lock()
	e.used += n
	e.tenants[tenant] += n
	e.mu.Unlock()
}

// release returns n resident bytes previously charged to tenant.
func (e *economy) release(tenant string, n int64) { e.charge(tenant, -n) }

// overBy returns how many bytes usage exceeds the budget (<= 0 = fits).
func (e *economy) overBy() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used - e.budget
}

// rebalance sheds idle container states until usage fits the budget
// again and returns how many it shed.  It must be called without any
// shard or state lock held.  Rotation is bounded: a pass over every
// mount that sheds nothing ends the loop (everything left is pinned or
// already gone).
func (e *economy) rebalance() int {
	e.mu.Lock()
	ms := e.mounts
	e.mu.Unlock()
	shed := 0
	for e.overBy() > 0 {
		before := shed
		for _, m := range ms {
			if over := e.overBy(); over > 0 {
				shed += m.reclaim(over)
			}
		}
		if shed == before {
			break
		}
	}
	return shed
}

// publish writes the economy's state into reg as gauges: the budget,
// resident and shed bytes, states shed, and each tenant's resident bytes
// (a tenant whose bytes all left reads 0).  It runs when a service's
// registry is read, so charging never touches a registry.
func (e *economy) publish(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	reg.Gauge("plfs.econ.budget_bytes").Set(float64(e.budget))
	reg.Gauge("plfs.econ.used_bytes").Set(float64(e.used))
	reg.Gauge("plfs.econ.evictions").Set(float64(e.evictions.Load()))
	reg.Gauge("plfs.econ.evicted_bytes").Set(float64(e.evictedBytes.Load()))
	for t, b := range e.tenants {
		reg.Gauge("plfs.svc.tenant." + t + ".cache_bytes").Set(float64(b))
	}
}
