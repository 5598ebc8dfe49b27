package plfs

// Per-volume health: the failure-domain layer of the self-healing
// service (DESIGN.md §15).  Every backend operation's outcome — error
// or latency — feeds a per-volume circuit breaker:
//
//	closed ──(threshold consecutive failures/slow ops)──> open
//	open ──(probe cooldown elapses; next caller probes)──> half-open
//	half-open ──(probe succeeds)──> closed
//	half-open ──(probe fails/slow)──> open, cooldown doubled
//
// An open breaker tells writers to place new droppings elsewhere and
// readers to hedge index reads to replicas.  Foreground operations only
// ever steer (they ask State and route around anything not closed);
// the half-open probe budget is spent by the periodic repair scrub via
// Avoid, whose per-volume listing becomes the probe — one cheap
// operation off the workload's critical path, instead of a step's worth
// of foreground I/O stampeding into a still-sick volume.  Operations
// that cannot steer (a canonical-volume lookup has exactly one home)
// still land, and their outcomes resolve a pending probe the same way.
// All timing comes from the context's Clock and all waiting is the
// caller's own Sleeper-charged backoff, which keeps the state machine
// fully deterministic under the discrete-event virtual clock.
//
// The table is owned by the Service and shared across all of its
// mounts and tenants (one browned-out OST is everyone's problem); a
// standalone mount that enables HedgedReads or IndexReplicas gets a
// private table.

import (
	"sort"
	"strings"
	"sync"
	"time"

	"plfs/internal/obs"
)

// BreakerState is one volume's circuit-breaker position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: healthy; operations flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the volume is presumed down or degraded; placement
	// avoids it and index reads prefer replicas until the probe cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the next operation is the
	// probe whose outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's tuning.
const (
	// failureThreshold consecutive failed or slow operations open a
	// closed breaker.
	failureThreshold = 4
	// probeAfter is the first cooldown (Clock time) before an open
	// breaker lets a half-open probe through; every failed probe doubles
	// it up to maxProbeAfter.
	probeAfter    = 25 * time.Millisecond
	maxProbeAfter = 400 * time.Millisecond
	// An operation is slow when it exceeds slowFactor times the fleet's
	// rolling p99, with a floor of minSlow so near-instant healthy
	// baselines don't flag noise.
	slowFactor = 4
	minSlow    = time.Millisecond
	// minSamples healthy latency samples must be in a window before
	// slowness detection activates.
	minSamples = 8
	// hedgeAfter is the absolute latency beyond which a small index read
	// is hedged to a replica while the statistical baseline is still
	// unwarmed.
	hedgeAfter = 20 * time.Millisecond
)

// latencyWindow is the rolling healthy-latency sample count per volume
// and op class.
const latencyWindow = 64

// opClass separates the latency baselines: metadata operations (mkdir,
// create, stat, readdir, remove, rename, open) complete in microseconds
// while data transfers scale with payload size.  Pooling them in one
// window would let the data tail hide a browned-out volume's metadata
// slowness (and flag healthy transfers as slow against a
// metadata-dominated p99), so each class keeps its own ring.
type opClass int

const (
	classMeta opClass = iota
	classData
	numClasses
)

// latRing is one class's rolling healthy-latency window.
type latRing struct {
	ring [latencyWindow]int64 // healthy latency samples, ns
	n    int                  // samples resident (<= latencyWindow)
	i    int                  // next write position
}

// Health is the per-volume breaker table, keyed by volume root path so
// mounts sharing backing volumes share their health view.
type Health struct {
	mu   sync.Mutex
	vols map[string]*volBreaker
}

type volBreaker struct {
	state BreakerState
	// consec counts consecutive failures/slow ops while closed, per op
	// class: a healthy bulk transfer must not reset a metadata slowness
	// streak (brownouts often tax the metadata path while leaving
	// transfer bandwidth mostly intact).
	consec    [numClasses]int
	probeAt   int64 // Clock ns at which an open breaker admits a probe
	cooldown  time.Duration
	probeLeft int // half-open trial admissions remaining this cooldown

	rings [numClasses]latRing

	opens   int64 // closed->open transitions
	probes  int64 // open->half-open transitions
	probeOK int64 // half-open->closed transitions
	fails   int64 // observed failures (all states)
	slows   int64 // observed slow successes
}

// NewHealth builds a breaker table.
func NewHealth() *Health {
	return &Health{vols: map[string]*volBreaker{}}
}

func (h *Health) vol(root string) *volBreaker {
	b := h.vols[root]
	if b == nil {
		b = &volBreaker{cooldown: probeAfter}
		h.vols[root] = b
	}
	return b
}

// p99Locked returns the rolling p99 of b's healthy samples in one op
// class (0 with too few samples).  Call with h.mu held.
func (h *Health) p99Locked(b *volBreaker, cls opClass) time.Duration {
	r := &b.rings[cls]
	if r.n < minSamples {
		return 0
	}
	tmp := make([]int64, r.n)
	copy(tmp, r.ring[:r.n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := (99*r.n + 99) / 100
	if idx >= r.n {
		idx = r.n - 1
	}
	return time.Duration(tmp[idx])
}

// baselineLocked is the healthy-latency reference for one op class: the
// median of the per-volume rolling p99s across every volume with a
// warmed window.  Peer comparison, not self comparison — a volume whose
// own window filled while it was already degraded would otherwise grade
// its slowness against a poisoned baseline and never flag, while its
// healthy peers pin the median to what the hardware actually delivers.
func (h *Health) baselineLocked(cls opClass) time.Duration {
	ps := make([]int64, 0, len(h.vols))
	for _, b := range h.vols {
		if p := h.p99Locked(b, cls); p > 0 {
			ps = append(ps, int64(p))
		}
	}
	if len(ps) == 0 {
		return 0
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return time.Duration(ps[(len(ps)-1)/2])
}

// slowCutoffLocked is the duration beyond which a cls operation counts
// as slow (0 = detection inactive).
func (h *Health) slowCutoffLocked(cls opClass) time.Duration {
	p := h.baselineLocked(cls)
	if p == 0 {
		return 0
	}
	cut := time.Duration(float64(p) * slowFactor)
	if cut < minSlow {
		cut = minSlow
	}
	return cut
}

// Observe feeds one metadata operation's outcome into root's breaker.
// Failure means an error the retry policy would classify as worth
// retrying (transient faults, EIO-shaped errors); namespace verdicts
// like ErrNotExist are neutral.  now is Clock ns at completion, d the
// operation's duration.
func (h *Health) Observe(root string, now int64, d time.Duration, err error) {
	h.observe(root, now, d, err, classMeta)
}

// ObserveData is Observe for data-transfer operations (reads, writes,
// appends), whose latency baseline is kept separate from metadata.
// Only small transfers (<= dataGradeMax) are latency-graded: a bulk
// transfer's duration is dominated by payload size and volume queuing,
// which drowns the fixed per-op overhead a brownout adds, so grading it
// against small-op baselines produces false alarms under healthy
// contention.  Index appends and index reads — the small, frequent ops
// — carry the undiluted signal.  Bulk successes are neutral; failures
// of any size count.
func (h *Health) ObserveData(root string, now int64, d time.Duration, bytes int64, err error) {
	if bytes > dataGradeMax && err == nil {
		return
	}
	h.observe(root, now, d, err, classData)
}

// dataGradeMax is the largest data transfer whose latency feeds the
// breaker's slowness detector.
const dataGradeMax = 16 << 10

func (h *Health) observe(root string, now int64, d time.Duration, err error, cls opClass) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.vol(root)
	failed := err != nil && Retryable(err)
	slow := false
	if !failed {
		// Latency grades every completed operation, including neutral
		// namespace verdicts (ErrNotExist etc.): a lookup that took 64ms
		// to say "not found" is still evidence of a sick volume, and a
		// probe must not be winnable by a slow miss.
		if cut := h.slowCutoffLocked(cls); cut > 0 && d > cut {
			slow = true
		}
	}
	if failed {
		b.fails++
	}
	if slow {
		b.slows++
	}
	bad := failed || slow
	switch b.state {
	case BreakerHalfOpen:
		if bad {
			// Probe lost: back to open with a doubled cooldown.
			b.state = BreakerOpen
			b.cooldown *= 2
			if b.cooldown > maxProbeAfter {
				b.cooldown = maxProbeAfter
			}
			b.probeAt = now + int64(b.cooldown)
			b.opens++
			return
		}
		// Probe won: healthy again.
		b.state = BreakerClosed
		b.consec = [numClasses]int{}
		b.cooldown = probeAfter
		b.probeOK++
		if err == nil {
			h.pushLocked(b, cls, d)
		}
	case BreakerOpen:
		// Stragglers finishing against an open breaker carry no new
		// information; the half-open probe decides.
	default: // closed
		if bad {
			b.consec[cls]++
			if b.consec[cls] >= failureThreshold {
				b.state = BreakerOpen
				b.probeAt = now + int64(b.cooldown)
				b.opens++
			}
			return
		}
		b.consec[cls] = 0
		if err == nil {
			h.pushLocked(b, cls, d)
		}
	}
}

// pushLocked records a healthy latency sample.
func (h *Health) pushLocked(b *volBreaker, cls opClass, d time.Duration) {
	if d < 0 {
		d = 0
	}
	r := &b.rings[cls]
	r.ring[r.i] = int64(d)
	r.i = (r.i + 1) % latencyWindow
	if r.n < latencyWindow {
		r.n++
	}
}

// State returns root's breaker state at Clock time now, transitioning
// an open breaker to half-open when its cooldown has elapsed — the
// caller asking is the probe, so route its operation to the volume.
func (h *Health) State(root string, now int64) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.vols[root]
	if b == nil {
		return BreakerClosed
	}
	if b.state == BreakerOpen && now >= b.probeAt {
		b.state = BreakerHalfOpen
		b.probes++
		b.probeLeft = 1
		b.probeAt = now + int64(b.cooldown)
	}
	return b.state
}

// Avoid reports whether deferrable background work should steer around
// root right now, spending the half-open probe budget: one caller per
// cooldown interval gets false on a not-yet-closed breaker and becomes
// the probe.  The repair scrub is the intended caller — foreground
// reads and placement use State and never probe — so a still-sick
// volume sees one cheap listing per cooldown instead of the full
// workload stampeding back the moment the cooldown elapses.
func (h *Health) Avoid(root string, now int64) bool {
	if h.State(root, now) == BreakerOpen {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.vols[root]
	if b == nil || b.state != BreakerHalfOpen {
		return false
	}
	if b.probeLeft > 0 {
		b.probeLeft--
		return false
	}
	if now >= b.probeAt {
		// The previous trial resolved nothing (a neutral bulk transfer,
		// or a caller that checked and never issued the op).  Re-arm with
		// a doubled interval so unresolved trials thin out exponentially
		// instead of admitting every caller whose arrival outruns a
		// fixed cooldown.
		b.cooldown *= 2
		if b.cooldown > maxProbeAfter {
			b.cooldown = maxProbeAfter
		}
		b.probeAt = now + int64(b.cooldown)
		return false
	}
	return true
}

// Slow reports whether a d-long, bytes-sized data read exceeded the
// fleet's rolling small-op baseline — the hedging trigger.  Bulk
// transfers are never graded (see ObserveData).
func (h *Health) Slow(root string, d time.Duration, bytes int64) bool {
	if bytes > dataGradeMax {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.vols[root] == nil {
		return false
	}
	cut := h.slowCutoffLocked(classData)
	if cut == 0 {
		// Baseline not warmed yet: fall back to the absolute hedge
		// threshold so a browned-out primary is still escaped early on.
		cut = hedgeAfter
	}
	return d > cut
}

// VolHealth is one volume's health snapshot.
type VolHealth struct {
	Root        string
	State       BreakerState
	Consecutive int           // consecutive failures/slow ops while closed
	P99         time.Duration // rolling healthy p99, small data ops
	MetaP99     time.Duration // rolling healthy p99, metadata ops
	Opens       int64         // closed/half-open -> open transitions
	Probes      int64         // open -> half-open transitions
	ProbeOK     int64         // successful probes (breaker closed again)
	Failures    int64
	SlowOps     int64
}

// Snapshot returns every observed volume's health, sorted by root.
func (h *Health) Snapshot() []VolHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]VolHealth, 0, len(h.vols))
	for root, b := range h.vols {
		// Report the data-class baseline when it has samples (the number
		// hedging decisions key off); otherwise the metadata one.
		p99 := h.p99Locked(b, classData)
		if p99 == 0 {
			p99 = h.p99Locked(b, classMeta)
		}
		consec := b.consec[classMeta]
		if b.consec[classData] > consec {
			consec = b.consec[classData]
		}
		out = append(out, VolHealth{
			Root: root, State: b.state, Consecutive: consec,
			P99: p99, MetaP99: h.p99Locked(b, classMeta),
			Opens: b.opens, Probes: b.probes,
			ProbeOK: b.probeOK, Failures: b.fails, SlowOps: b.slows,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

// Publish writes the health table into a registry as gauges (Set, so it
// is idempotent per snapshot) under plfs.health.<root>.* — what
// plfsctl health renders.
func (h *Health) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, v := range h.Snapshot() {
		p := "plfs.health." + v.Root + "."
		reg.Gauge(p + "state").Set(float64(v.State))
		reg.Gauge(p + "p99_ns").Set(float64(v.P99))
		reg.Gauge(p + "opens").Set(float64(v.Opens))
		reg.Gauge(p + "probes").Set(float64(v.Probes))
		reg.Gauge(p + "probe_ok").Set(float64(v.ProbeOK))
		reg.Gauge(p + "failures").Set(float64(v.Failures))
		reg.Gauge(p + "slow_ops").Set(float64(v.SlowOps))
	}
}

// ReadHealth reads back the table Publish wrote: one row per volume root
// found in the snapshot's plfs.health.<root>.* gauges, sorted by root.
// A root may hold dots; the field is what follows the last one.
func ReadHealth(snap obs.Snapshot) []VolHealth {
	rows := map[string]*VolHealth{}
	for name, v := range snap.Gauges {
		rest, ok := strings.CutPrefix(name, "plfs.health.")
		i := strings.LastIndex(rest, ".")
		if !ok || i < 0 {
			continue
		}
		h := rows[rest[:i]]
		if h == nil {
			h = &VolHealth{Root: rest[:i]}
			rows[h.Root] = h
		}
		switch rest[i+1:] {
		case "state":
			h.State = BreakerState(v)
		case "p99_ns":
			h.P99 = time.Duration(v)
		case "opens":
			h.Opens = int64(v)
		case "probes":
			h.Probes = int64(v)
		case "probe_ok":
			h.ProbeOK = int64(v)
		case "failures":
			h.Failures = int64(v)
		case "slow_ops":
			h.SlowOps = int64(v)
		}
	}
	out := make([]VolHealth, 0, len(rows))
	for _, h := range rows {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

// bind returns ctx with the mount's interceptors on every volume: the
// retry policy (when Retry.Attempts > 1) above the health tracker (when
// the mount has a health table), both above whatever the context's
// volumes already carry, such as a fault injector.  Health therefore
// sees every attempt: each backend call is timed on ctx.Clock and its
// outcome fed to the mount's breaker table, by op class.  A bulk create
// is one observation (the interposer reports the batch's first entry
// error): the batch is one RPC to the volume, and counting it per entry
// would let a single bulk storm trip a breaker that saw only one slow
// round trip.  Idempotent: an already-bound context passes through.
func (m *Mount) bind(ctx Ctx) Ctx {
	pol := m.opt.Retry
	if m.health == nil && pol.Attempts <= 1 || len(ctx.Vols) == 0 || ctx.bound {
		return ctx
	}
	var ric Interceptor
	if pol.Attempts > 1 {
		ric = pol.interceptor(ctx.Rank, ctx.Sleep, ctx.Obs)
	}
	h, now := m.health, ctx.now
	vols := make([]Backend, len(ctx.Vols))
	for i, b := range ctx.Vols {
		if h != nil {
			root := ""
			if i < len(m.roots) {
				root = m.roots[i]
			}
			b = Interpose(b, func(op *Op, call func() error) error {
				t0 := now()
				err := call()
				t1 := now()
				if op.Kind.Data() {
					h.ObserveData(root, t1, time.Duration(t1-t0), op.Bytes, err)
				} else {
					h.Observe(root, t1, time.Duration(t1-t0), err)
				}
				return err
			})
		}
		if ric != nil {
			b = Interpose(b, ric)
		}
		vols[i] = b
	}
	ctx.Vols, ctx.bound = vols, true
	return ctx
}
