// Package sim implements a deterministic discrete-event simulator used to
// model HPC clusters and parallel storage systems.
//
// The engine advances a virtual clock over a priority queue of events.
// Simulated processes are coroutines that run one at a time: the engine
// resumes exactly one process, which runs until it blocks (on a sleep, a
// resource, a link transfer, or a message) and so hands control back, and
// only then pops the next event.  Because at most one simulated process
// executes at any moment, model code needs no locking and every run is a
// pure function of its configuration and seed.
//
// The package provides the primitives the higher layers are built from:
//
//   - Engine/Proc: clock, event queue, process spawning and sleeping
//   - Resource:    a k-server FIFO service center (metadata servers, disks)
//   - PSLink:      a processor-sharing (fair-share) bandwidth link
//     (networks, storage pipes) that charges each concurrent
//     flow an equal share of the capacity
//   - Mutex/Gate:  serialization and condition-style waiting
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t (a span, not a point) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

type event struct {
	t    Time
	seq  uint64
	proc *Proc  // if non-nil, resume this process
	fn   func() // otherwise run this callback in engine context
}

// before orders events by time, then by scheduling order; seq is unique,
// so the order is total and the queue's layout never shows in a run.
func (a event) before(b event) bool { return a.t < b.t || a.t == b.t && a.seq < b.seq }

// eventQueue is a 4-ary min-heap of event values: half the levels of a
// binary heap, no allocation per event and no interface calls.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 && ev.before(h[(i-1)/4]) {
		h[i] = h[(i-1)/4]
		i = (i - 1) / 4
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	ev := h[n] // sifted down from the root into the hole top leaves
	h[n] = event{}
	*q = h[:n]
	i := 0
	for first := 1; first < n; first = 4*i + 1 {
		m := first // the least of i's children
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = ev
	}
	return top
}

// lane is a FIFO of the events scheduled exactly d after the instant
// that scheduled them.  The clock never goes back and seq only grows, so
// events enter a lane already in (t, seq) order and its head is its
// least.  The events sit in a power-of-two ring that grows only when
// full.
type lane struct {
	d    Time
	ring []event
	head int // index of the oldest event
	n    int // events queued
}

func (l *lane) push(ev event) {
	if l.n == len(l.ring) {
		ring := make([]event, max(2*len(l.ring), 64))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = ev
	l.n++
}

func (l *lane) pop() event {
	ev := l.ring[l.head]
	l.ring[l.head] = event{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return ev
}

// Engine is a discrete-event simulation run.  The zero value is not usable;
// call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	lanes   []lane  // fixed-latency events, out of queue (see Lane)
	procs   []*Proc // by spawn index - 1; nil once exited
	live    int     // processes spawned and not yet exited
	cur     *Proc   // the process currently executing, if any
	rng     *rand.Rand
	failure any
	events  uint64 // events popped so far
	digest  uint64 // every popped event's (t, seq, proc id), folded
}

// NewEngine returns an engine whose random service-time jitter is derived
// from seed.  Two engines with the same seed and the same model produce
// identical traces.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		digest: fnvOffset,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.  It must only be
// used from model code running inside the simulation.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events the run has popped so far.
func (e *Engine) Events() uint64 { return e.events }

// Digest returns a 64-bit fold of every event the run has popped so far:
// its time, its sequence number and the spawn index of the process it
// resumed (0 for a callback), in pop order.  Two runs that pop the same
// events in the same order have the same digest; names, pointers and map
// order do not enter it.
func (e *Engine) Digest() uint64 { return e.digest }

// FNV-1a's 64-bit offset basis and prime, applied to whole words.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold counts ev and folds it into the digest.
func (e *Engine) fold(ev *event) {
	var id uint64
	if ev.proc != nil {
		id = ev.proc.id
	}
	h := (e.digest ^ uint64(ev.t)) * fnvPrime
	h = (h ^ ev.seq) * fnvPrime
	e.digest = (h ^ id) * fnvPrime
	e.events++
}

// Live returns the number of processes that have been spawned and not yet
// exited.  Periodic observers (tracers) use it to stop rescheduling
// themselves once the simulation's real work is done, so the event queue
// can drain.
func (e *Engine) Live() int { return e.live }

// Jitter returns d perturbed by a uniform factor in [1-frac, 1+frac].
func (e *Engine) Jitter(d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*e.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// Lane gives events scheduled exactly d after the current instant a FIFO
// lane of their own: they skip the heap, whose push and pop cost
// O(log n), and queue in O(1).  Which event runs next is unchanged, since
// Run pops the least (t, seq) over the heap and every lane; a lane only
// pays off for a latency that many events share, such as a network's
// per-message latency.  Registering a d again is a no-op.
func (e *Engine) Lane(d time.Duration) {
	for _, l := range e.lanes {
		if l.d == Time(d) {
			return
		}
	}
	e.lanes = append(e.lanes, lane{d: Time(d)})
}

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := event{t: t, seq: e.seq, proc: p, fn: fn}
	for i := range e.lanes {
		if l := &e.lanes[i]; t-e.now == l.d {
			l.push(ev)
			return
		}
	}
	e.queue.push(ev)
}

// pop removes and returns the least event over the heap and the lanes'
// heads; it reports false when every one is empty.
func (e *Engine) pop() (event, bool) {
	from := -1 // the heap
	var least *event
	if len(e.queue) > 0 {
		least = &e.queue[0]
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.n > 0 && (least == nil || l.ring[l.head].before(*least)) {
			least, from = &l.ring[l.head], i
		}
	}
	switch {
	case least == nil:
		return event{}, false
	case from < 0:
		return e.queue.pop(), true
	}
	return e.lanes[from].pop(), true
}

// At schedules fn to run in engine context at absolute time t.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, fn) }

// After schedules fn to run in engine context d from now.
func (e *Engine) After(d time.Duration, fn func()) { e.schedule(e.now+Time(d), nil, fn) }

// Proc is a simulated process: a coroutine whose execution is interleaved
// with virtual time by the engine.
type Proc struct {
	e    *Engine
	name string
	id   uint64 // spawn index, from 1
	// The coroutine (see start): the engine calls next to run the process
	// to its next park; park calls yield, which reports false after stop.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// stopped is the panic that unwinds a parked process when Run returns
// without it; Spawn's wrapper recovers it.
type stopped struct{}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs in.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn creates a simulated process running fn.  The process starts at the
// current virtual time, after already-queued events.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, name: name, id: uint64(len(e.procs) + 1)}
	e.procs = append(e.procs, p)
	e.live++
	e.schedule(e.now, p, nil)
	p.start(func() {
		defer func() {
			if r := recover(); r != nil && r != (stopped{}) && e.failure == nil {
				e.failure = fmt.Sprintf("proc %q panicked: %v", p.name, r)
			}
			e.exit(p)
		}()
		fn(p)
	})
	return p
}

// exit forgets p, which has returned or was stopped.
func (e *Engine) exit(p *Proc) {
	e.procs[p.id-1] = nil
	e.live--
}

// park blocks the calling process until some event resumes it.  The caller
// must have arranged for a wake-up (a queued event or registration with a
// primitive that will schedule one).
func (p *Proc) park() {
	if p.e.cur != p {
		// A simulated operation (sleep, resource, transfer) was invoked on
		// a Proc that is not the one currently executing — almost always a
		// handle or client created by one process being used from another.
		panic(fmt.Sprintf("sim: blocking operation on proc %q from a different goroutine (current: %q)",
			p.name, p.e.curName()))
	}
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

func (e *Engine) curName() string {
	if e.cur == nil {
		return "<engine>"
	}
	return e.cur.name
}

// Suspend parks the process with no wake-up of its own.  The caller must
// have handed engine callbacks the work that ends in Resume (or a Wake).
func (p *Proc) Suspend() { p.park() }

// Resume runs a suspended process to its next park within the current
// event: it schedules nothing and the clock does not move, so the process
// continues exactly where an event of its own at this instant would have
// continued it.  It must be called from an engine callback; from a
// process it panics, since one process cannot run inside another.
func (p *Proc) Resume() {
	e := p.e
	if e.cur != nil {
		panic(fmt.Sprintf("sim: Resume of proc %q from proc %q", p.name, e.cur.name))
	}
	e.cur = p
	p.next()
	e.cur = nil
}

// Wake schedules p to resume at the current virtual time.  It must be
// called from simulation context (another proc or an engine callback).
func (p *Proc) Wake() { p.e.schedule(p.e.now, p, nil) }

// Sleep suspends the process for d of virtual time.  Negative durations
// sleep zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+Time(d), p, nil)
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events, allowing other ready processes to run first.
func (p *Proc) Yield() {
	p.e.schedule(p.e.now, p, nil)
	p.park()
}

// Run processes events until the queue is empty, then reports whether the
// simulation completed cleanly.  It returns an error if a process panicked
// or if processes remain blocked with no pending events (a model deadlock).
// However it returns, no process outlives it: those still parked are
// unwound, running their deferred calls, and their coroutines exit.
func (e *Engine) Run() error {
	defer func() {
		for _, p := range e.procs {
			if p == nil {
				continue
			}
			e.cur = p
			p.stop()
			if e.procs[p.id-1] != nil { // it never started, so no wrapper ran
				e.exit(p)
			}
		}
		e.cur = nil
	}()
	for {
		ev, ok := e.pop()
		if !ok {
			break
		}
		e.fold(&ev)
		e.now = ev.t
		if ev.proc != nil {
			e.cur = ev.proc
			ev.proc.next()
			e.cur = nil
		} else if ev.fn != nil {
			ev.fn() // may Resume a process
		}
		if e.failure != nil {
			return fmt.Errorf("sim: %v", e.failure)
		}
	}
	if e.live > 0 {
		names := make([]string, 0, e.live)
		for _, p := range e.procs {
			if p != nil {
				names = append(names, p.name)
			}
		}
		sort.Strings(names)
		if len(names) > 8 {
			names = append(names[:8], "...")
		}
		return fmt.Errorf("sim: deadlock: %d processes blocked forever (%v)", e.live, names)
	}
	return nil
}

// RunProcs spawns one process per function and runs the engine to
// completion.  It is a convenience for tests and small models.
func (e *Engine) RunProcs(fns ...func(*Proc)) error {
	for i, fn := range fns {
		e.Spawn(fmt.Sprintf("proc-%d", i), fn)
	}
	return e.Run()
}
