package sim

import "math"

// PSLink is a processor-sharing bandwidth link: at any instant, the n
// active flows each progress at capacity/n bytes per second.  It models
// shared network pipes (a storage network, a node's NIC) and aggregated
// disk groups, where concurrent transfers fairly split the hardware.
//
// The implementation uses the classic virtual-time trick: a monotone
// counter V advances at capacity/n bytes per second of real (virtual
// simulation) time, and a flow of S bytes admitted at V0 completes when
// V reaches V0+S.  Arrivals and departures cost O(log n).
type PSLink struct {
	e        *Engine
	capacity float64 // bytes per second
	name     string

	v      float64 // virtual bytes served per flow since start
	lastT  Time
	flows  flowHeap
	gen    uint64     // invalidates stale completion timers
	timers []*psTimer // free list of fired timers

	// Moved accumulates total bytes transferred, for utilization reports.
	Moved int64
}

type psFlow struct {
	finishV float64
	seq     uint64
	proc    *Proc  // blocked in Transfer, or nil for an async flow,
	done    func() // whose completion callback this is
}

// before orders flows by virtual finish time, then by admission; seq is
// unique, so the order is total and the heap's layout never shows.
func (a *psFlow) before(b *psFlow) bool {
	return a.finishV < b.finishV || a.finishV == b.finishV && a.seq < b.seq
}

// flowHeap is a binary min-heap of flow values.
type flowHeap []psFlow

func (h *flowHeap) push(f psFlow) {
	q := append(*h, f)
	i := len(q) - 1
	for i > 0 && f.before(&q[(i-1)/2]) {
		q[i] = q[(i-1)/2]
		i = (i - 1) / 2
	}
	q[i] = f
	*h = q
}

func (h *flowHeap) pop() psFlow {
	q := *h
	top, n := q[0], len(q)-1
	f := q[n] // sifted down from the root into the hole top leaves
	q[n] = psFlow{}
	*h = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&f) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = f
	}
	return top
}

// psTimer is one armed completion timer; fire is bound once, so arming a
// recycled timer allocates nothing.
type psTimer struct {
	l    *PSLink
	gen  uint64
	fire func()
}

func (t *psTimer) run() {
	l := t.l
	l.timers = append(l.timers, t)
	if t.gen == l.gen {
		l.complete()
	}
}

// NewPSLink returns a fair-share link with the given capacity in bytes
// per second.
func NewPSLink(e *Engine, name string, bytesPerSec float64) *PSLink {
	if bytesPerSec <= 0 {
		panic("sim: PSLink capacity must be positive")
	}
	return &PSLink{e: e, capacity: bytesPerSec, name: name, lastT: e.Now()}
}

// Active returns the number of in-flight flows.
func (l *PSLink) Active() int { return len(l.flows) }

// advance brings the virtual counter up to the current time.
func (l *PSLink) advance() {
	now := l.e.Now()
	if n := len(l.flows); n > 0 && now > l.lastT {
		l.v += float64(now-l.lastT) / 1e9 * l.capacity / float64(n)
	}
	l.lastT = now
}

// Transfer moves bytes through the link, blocking p for the fair-share
// duration.  Zero or negative sizes complete immediately.
func (l *PSLink) Transfer(p *Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	l.admit(bytes, p, nil)
	p.park()
}

// TransferAsync starts a flow and invokes done (in engine context) when it
// completes, without blocking any process.  It lets one process drive
// several concurrent flows (e.g. a transfer that crosses both a network
// link and a disk group).
func (l *PSLink) TransferAsync(bytes int64, done func()) {
	if bytes <= 0 {
		l.e.After(0, done)
		return
	}
	l.admit(bytes, nil, done)
}

// admit starts a flow of bytes on behalf of proc or done.
func (l *PSLink) admit(bytes int64, proc *Proc, done func()) {
	l.Moved += bytes
	l.advance()
	l.e.seq++
	l.flows.push(psFlow{finishV: l.v + float64(bytes), seq: l.e.seq, proc: proc, done: done})
	l.reschedule()
}

// reschedule (re)arms the single completion timer for the earliest
// finishing flow.
func (l *PSLink) reschedule() {
	l.gen++
	if len(l.flows) == 0 {
		return
	}
	need := l.flows[0].finishV - l.v
	if need < 0 {
		need = 0
	}
	dt := need * float64(len(l.flows)) / l.capacity // seconds
	ns := Time(math.Ceil(dt * 1e9))
	var t *psTimer
	if n := len(l.timers); n > 0 {
		t, l.timers = l.timers[n-1], l.timers[:n-1]
	} else {
		t = &psTimer{l: l}
		t.fire = t.run
	}
	t.gen = l.gen
	l.e.At(l.e.Now()+ns+1, t.fire)
}

// complete pops every flow whose virtual finish time has been reached.
func (l *PSLink) complete() {
	l.advance()
	const eps = 1e-6
	for len(l.flows) > 0 && l.flows[0].finishV <= l.v+eps {
		f := l.flows.pop()
		if f.proc != nil {
			f.proc.Wake()
		} else {
			l.e.After(0, f.done)
		}
	}
	l.reschedule()
}
