package sim

import "time"

// Resource is a first-come-first-served service center with a fixed number
// of parallel servers.  It models metadata servers, RPC handler pools, and
// other queueing stations.  All methods must be called from simulation
// context.
type Resource struct {
	e     *Engine
	cap   int
	inUse int
	wait  Gate

	// Busy accumulates server-busy virtual time for utilization reports.
	Busy time.Duration
}

// NewResource returns a resource with the given number of parallel servers.
func NewResource(e *Engine, servers int) *Resource {
	if servers < 1 {
		servers = 1
	}
	return &Resource{e: e, cap: servers}
}

// InUse returns the number of currently busy servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting for a server.
func (r *Resource) QueueLen() int { return r.wait.Waiting() }

// Acquire blocks p until a server is free and claims it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.wait.Wait(p)
	// The releaser transferred its server slot to us; inUse is unchanged.
}

// Release frees a server, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	if !r.wait.Open() {
		r.inUse--
	}
}

// Use acquires a server, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	r.Busy += d
	p.Sleep(d)
	r.Release()
}

// Mutex is a FIFO mutual-exclusion lock for simulated processes.  The
// zero value is an unlocked mutex, so a structure can hold one by value
// and pay no allocation for it.  Unlock hands the mutex straight to the
// longest waiter, as a one-server Resource hands over its server.
type Mutex struct {
	held bool
	wait Gate
}

// Lock blocks p until the mutex is held by p.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.wait.Wait(p)
	// The unlocker handed the mutex to us; it stays held.
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	if !m.wait.Open() {
		m.held = false
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.held }

// Waiters reports how many processes are queued on the mutex.
func (m *Mutex) Waiters() int { return m.wait.Waiting() }

// Gate is a condition-style wait point: processes wait on it and are
// released in FIFO order by Open or OpenAll.
//
// The wait queue is a head-indexed slice so dequeue is O(1) even when
// tens of thousands of processes pile onto one hot resource.
type Gate struct {
	q    []*Proc
	head int
}

// Wait parks p until the gate releases it.
func (g *Gate) Wait(p *Proc) {
	g.q = append(g.q, p)
	p.park()
}

// Open releases the longest-waiting process, reporting whether one waited.
func (g *Gate) Open() bool {
	if g.head >= len(g.q) {
		return false
	}
	next := g.q[g.head]
	g.q[g.head] = nil
	g.head++
	if g.head == len(g.q) {
		g.q, g.head = g.q[:0], 0
	} else if g.head > 1024 && g.head*2 > len(g.q) {
		n := copy(g.q, g.q[g.head:])
		clear(g.q[n:])
		g.q, g.head = g.q[:n], 0
	}
	next.Wake()
	return true
}

// OpenAll releases every waiting process.
func (g *Gate) OpenAll() {
	for _, p := range g.q[g.head:] {
		p.Wake()
	}
	g.q, g.head = g.q[:0], 0
}

// Waiting reports the number of parked processes.
func (g *Gate) Waiting() int { return len(g.q) - g.head }

// WaitGroup counts down simulated completions; Wait blocks until the count
// reaches zero.
type WaitGroup struct {
	n    int
	gate Gate
}

// Add increments the completion count by delta.
func (w *WaitGroup) Add(delta int) { w.n += delta }

// Done decrements the count, releasing waiters at zero.
func (w *WaitGroup) Done() {
	w.n--
	if w.n <= 0 {
		w.gate.OpenAll()
	}
}

// Wait parks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n <= 0 {
		return
	}
	w.gate.Wait(p)
}
