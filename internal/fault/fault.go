// Package fault wraps plfs.Backend with a deterministic, seedable fault
// injector — the test double for the paper's "challenges" half: one
// logical file becomes N data + N index droppings, so a single slow or
// failing OST object breaks or stalls the whole logical file.  The
// injector models the failure classes middleware over an object store
// must absorb:
//
//   - transient EIO-style errors with per-operation probabilities
//     (retryable; see plfs.Options.Retry);
//   - added latency on chosen volumes (a degraded OST), charged through
//     the context's Sleeper so it rides the simulator's virtual clock in
//     simulated mode and real time over osfs;
//   - torn appends: a prefix of the payload lands before a permanent
//     error, modeling a crash mid-write (plfs Recover repairs these);
//   - permanent loss of named paths (a dead object);
//   - deterministic crash points: crashat=K halts the whole wrapped
//     backend at its K-th mutating operation (with torn-prefix semantics
//     on an append in flight), freezing the backing store in exactly the
//     state a crash there would leave.  Tests reopen the frozen state
//     with fresh unwrapped backends and can therefore enumerate every
//     crash boundary instead of sampling probabilistically.
//
// All randomness derives from the spec's seed and a global injection
// sequence number, so a simulated run injects the identical fault
// schedule every time.
package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Op names one backend operation class for per-op fault probabilities.
type Op string

// Operation classes.  OpOpen covers OpenRead and OpenWrite; OpRead and
// OpWrite/OpAppend fire on file handles, the rest on the backend.  OpPut
// covers the conditional PUTs of object-store backends (plfs.CondPutter:
// PutIfAbsent and PutReplace); a crashing or failing conditional PUT is
// atomic — it never applies partially, so there is no torn variant.
const (
	OpMkdir   Op = "mkdir"
	OpCreate  Op = "create"
	OpOpen    Op = "open"
	OpStat    Op = "stat"
	OpReadDir Op = "readdir"
	OpRemove  Op = "remove"
	OpRename  Op = "rename"
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpAppend  Op = "append"
	OpPut     Op = "put"
)

var allOps = []Op{OpMkdir, OpCreate, OpOpen, OpStat, OpReadDir, OpRemove, OpRename, OpRead, OpWrite, OpAppend, OpPut}

// Spec describes the faults to inject.
type Spec struct {
	// Seed drives the deterministic pseudo-random fault schedule.
	Seed int64
	// P maps an operation class to its transient-error probability.
	P map[Op]float64
	// Torn is the probability that an Append lands only a prefix of its
	// payload before failing permanently (a crash mid-write).
	Torn float64
	// Delay is added latency on every operation, on every volume.
	Delay time.Duration
	// SlowVol adds latency to every operation on specific volumes.
	SlowVol map[int]time.Duration
	// Lose marks paths as permanently lost: any operation on a path
	// containing one of these substrings fails with ErrNotExist.
	Lose []string
	// CrashAt, when > 0, crashes the wrapped backend at its CrashAt-th
	// mutating operation (mkdir, create, remove, rename, write, append,
	// put — counted across all wrapped volumes).  The crashing operation does
	// not apply, except that an append in flight lands a torn prefix
	// first; every operation after the crash point fails permanently.
	// The backing store is left frozen in the post-crash state, to be
	// reopened with fresh unwrapped backends.
	CrashAt int64
	// Brownout maps a volume to a sustained degradation factor (> 1): a
	// browned-out volume's latency is multiplied by the factor (with a
	// floor of brownoutBaseLatency when no latency is otherwise
	// configured) and its operations additionally fail transiently at an
	// elevated rate of factor/100, capped at maxBrownoutP.  Harnesses can
	// also start and end brownouts mid-run with Injector.SetBrownout /
	// ClearBrownout.
	Brownout map[int]float64
}

// Brownout tuning: the latency floor applied to a browned-out volume
// with no other configured delay, and the cap on the elevated transient
// rate (factor/100).  The cap keeps a brownout a slow-but-mostly-working
// disk: much above 10%, a bounded retry loop over the several backend
// ops of an atomic commit fails outright often enough that an unsteered
// workload can't finish at all, and the figure would measure luck
// instead of latency.
const (
	brownoutBaseLatency = 250 * time.Microsecond
	maxBrownoutP        = 0.10
)

// ParseSpec parses the -fault flag syntax: comma-separated key=value
// pairs.
//
//	seed=N        RNG seed (default 1)
//	all=P         transient-error probability for every operation class
//	<op>=P        per-op probability: mkdir create open stat readdir
//	              remove rename read write append put
//	torn=P        torn-append probability
//	delay=DUR     added latency on every volume (time.ParseDuration)
//	slow=VOL:DUR  added latency on volume VOL (repeatable)
//	lose=SUBSTR   paths containing SUBSTR are permanently lost (repeatable)
//	crashat=K     crash the backend at its K-th mutating operation (K >= 1)
//	brownout=VOL:F  degrade volume VOL: latency x F plus elevated
//	              transient rate F/100 (repeatable, F > 1)
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	isOp := map[Op]bool{}
	for _, op := range allOps {
		isOp[op] = true
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("fault: %q is not key=value", kv)
		}
		switch {
		case k == "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: seed %q: %v", v, err)
			}
			spec.Seed = n
		case k == "all":
			p, err := parseProb(k, v)
			if err != nil {
				return spec, err
			}
			if spec.P == nil {
				spec.P = map[Op]float64{}
			}
			for _, op := range allOps {
				spec.P[op] = p
			}
		case isOp[Op(k)]:
			p, err := parseProb(k, v)
			if err != nil {
				return spec, err
			}
			if spec.P == nil {
				spec.P = map[Op]float64{}
			}
			spec.P[Op(k)] = p
		case k == "torn":
			p, err := parseProb(k, v)
			if err != nil {
				return spec, err
			}
			spec.Torn = p
		case k == "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return spec, fmt.Errorf("fault: delay %q: %v", v, err)
			}
			spec.Delay = d
		case k == "slow":
			vol, dur, ok := strings.Cut(v, ":")
			if !ok {
				return spec, fmt.Errorf("fault: slow %q is not VOL:DUR", v)
			}
			n, err := strconv.Atoi(vol)
			if err != nil {
				return spec, fmt.Errorf("fault: slow volume %q: %v", vol, err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return spec, fmt.Errorf("fault: slow duration %q: %v", dur, err)
			}
			if spec.SlowVol == nil {
				spec.SlowVol = map[int]time.Duration{}
			}
			spec.SlowVol[n] = d
		case k == "lose":
			spec.Lose = append(spec.Lose, v)
		case k == "brownout":
			vol, fac, ok := strings.Cut(v, ":")
			if !ok {
				return spec, fmt.Errorf("fault: brownout %q is not VOL:FACTOR", v)
			}
			n, err := strconv.Atoi(vol)
			if err != nil {
				return spec, fmt.Errorf("fault: brownout volume %q: %v", vol, err)
			}
			fl, err := strconv.ParseFloat(fac, 64)
			if err != nil || fl <= 1 {
				return spec, fmt.Errorf("fault: brownout factor %q must be > 1", fac)
			}
			if spec.Brownout == nil {
				spec.Brownout = map[int]float64{}
			}
			spec.Brownout[n] = fl
		case k == "crashat":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return spec, fmt.Errorf("fault: crashat %q is not a positive op index", v)
			}
			spec.CrashAt = n
		default:
			return spec, fmt.Errorf("fault: unknown key %q", k)
		}
	}
	return spec, nil
}

func parseProb(k, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("fault: %s %q is not a probability in [0,1]", k, v)
	}
	return p, nil
}

// String renders the spec back in ParseSpec syntax.
func (s Spec) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	ops := make([]string, 0, len(s.P))
	for op := range s.P {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%g", op, s.P[Op(op)]))
	}
	if s.Torn > 0 {
		parts = append(parts, fmt.Sprintf("torn=%g", s.Torn))
	}
	if s.Delay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%s", s.Delay))
	}
	vols := make([]int, 0, len(s.SlowVol))
	for v := range s.SlowVol {
		vols = append(vols, v)
	}
	sort.Ints(vols)
	for _, v := range vols {
		parts = append(parts, fmt.Sprintf("slow=%d:%s", v, s.SlowVol[v]))
	}
	for _, l := range s.Lose {
		parts = append(parts, "lose="+l)
	}
	if s.CrashAt > 0 {
		parts = append(parts, fmt.Sprintf("crashat=%d", s.CrashAt))
	}
	bvols := make([]int, 0, len(s.Brownout))
	for v := range s.Brownout {
		bvols = append(bvols, v)
	}
	sort.Ints(bvols)
	for _, v := range bvols {
		parts = append(parts, fmt.Sprintf("brownout=%d:%g", v, s.Brownout[v]))
	}
	return strings.Join(parts, ",")
}

// Kind classifies an injected error.
type Kind int

// Injected error classes.
const (
	// Transient is a retryable EIO-style failure: the operation did not
	// happen and may be reissued.
	Transient Kind = iota
	// Torn is a permanent append failure after a prefix of the payload
	// landed (crash damage; plfs Recover handles the aftermath).
	Torn
	// Lost is a permanently missing path (satisfies errors.Is ErrNotExist).
	Lost
	// Crashed means the backend hit its crash point: the whole store is
	// frozen and every further operation fails permanently.
	Crashed
)

// Error is an injected fault.
type Error struct {
	// Op is the operation class the fault fired on.
	Op Op
	// Path is the backend path the operation targeted.
	Path string
	// Kind classifies the injected failure.
	Kind Kind
	// inFlight marks the mutating operation that triggered the crash
	// point itself (as opposed to operations after it): an append in
	// flight lands a torn prefix before the error surfaces.
	inFlight bool
}

// Error implements error.
func (e *Error) Error() string {
	switch e.Kind {
	case Torn:
		return fmt.Sprintf("fault: torn %s %s", e.Op, e.Path)
	case Lost:
		return fmt.Sprintf("fault: lost path %s %s", e.Op, e.Path)
	case Crashed:
		return fmt.Sprintf("fault: backend crashed (%s %s)", e.Op, e.Path)
	}
	return fmt.Sprintf("fault: transient %s error on %s", e.Op, e.Path)
}

// Transient reports whether a retry may succeed; the plfs retry policy
// honors it via errors.As.  Crashed and Torn report false so retry loops
// fail fast instead of hammering a dead store.
func (e *Error) Transient() bool { return e.Kind == Transient }

// TornWrite reports whether the failed operation may have applied a
// prefix of its payload (torn appends, and the append in flight at a
// crash point).  Atomic-commit writers use it to decide that retrying
// onto a fresh temp file is safe while in-place retry is not.
func (e *Error) TornWrite() bool { return e.Kind == Torn || (e.Kind == Crashed && e.inFlight) }

// Unwrap maps lost paths onto ErrNotExist so backend users treat them
// like any other missing file.
func (e *Error) Unwrap() error {
	if e.Kind == Lost {
		return iofs.ErrNotExist
	}
	return nil
}

// Injector produces fault-wrapped backends from one shared schedule.
// It is safe for concurrent use; under the discrete-event simulator
// (where processes run one at a time) the schedule is fully
// deterministic in the seed.
type Injector struct {
	spec Spec

	// Obs, when non-nil, receives live fault counters: one
	// "fault.injected.<op>" counter per op class and "fault.crashed" when
	// the crash point fires (see internal/obs and DESIGN.md §11).  Set it
	// before wrapping backends; nil disables publication.
	Obs *obs.Registry

	mu       sync.Mutex
	seq      uint64
	counts   map[Op]int
	mutOps   int64
	crashed  bool
	brownout map[int]float64
}

// New builds an injector for the spec.
func New(spec Spec) *Injector {
	bo := map[int]float64{}
	for v, f := range spec.Brownout {
		bo[v] = f
	}
	return &Injector{spec: spec, counts: map[Op]int{}, brownout: bo}
}

// SetBrownout starts (or retunes) a brownout on vol: latency x factor
// with an elevated transient rate of factor/100 (capped).  Harnesses
// call it at a virtual-time boundary to model a RAID rebuild or
// overloaded OST beginning mid-run.  Factors <= 1 clear the brownout.
func (in *Injector) SetBrownout(vol int, factor float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if factor <= 1 {
		delete(in.brownout, vol)
		return
	}
	in.brownout[vol] = factor
}

// ClearBrownout ends the brownout on vol, restoring its healthy latency
// and error rate.
func (in *Injector) ClearBrownout(vol int) { in.SetBrownout(vol, 0) }

// brownoutFactor returns vol's current degradation factor (0 = healthy).
func (in *Injector) brownoutFactor(vol int) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.brownout[vol]
}

// fireBrownout decides whether the browned-out volume's elevated
// transient rate hits this (op, path) call.  Healthy volumes roll no
// dice, so enabling a brownout on one volume leaves the others'
// schedules aligned with the op order, not with extra draws.
func (in *Injector) fireBrownout(op Op, path string, vol int) bool {
	fac := in.brownoutFactor(vol)
	if fac <= 1 {
		return false
	}
	return in.hit(op, "brownout:"+path, min(fac/100, maxBrownoutP))
}

// Spec returns the injector's fault specification.
func (in *Injector) Spec() Spec { return in.spec }

// Injected returns how many faults of each op class have fired (torn
// appends count under OpAppend).
func (in *Injector) Injected() map[Op]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Op]int, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// MutatingOps returns how many mutating operations (mkdir, create,
// remove, rename, write, append, put) have reached the wrapped backends.
// It counts even when no crash point is set, so a fault-free counting
// run establishes the sweep bound for crashat enumeration.
func (in *Injector) MutatingOps() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.mutOps
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

func mutating(op Op) bool {
	switch op {
	case OpMkdir, OpCreate, OpRemove, OpRename, OpWrite, OpAppend, OpPut:
		return true
	}
	return false
}

// crashCheck counts mutating ops and decides whether this call is at or
// past the crash point.  It returns a nil error, or a Crashed error that
// is inFlight exactly for the operation that tripped the crash.
func (in *Injector) crashCheck(op Op, path string) *Error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return &Error{Op: op, Path: path, Kind: Crashed}
	}
	if !mutating(op) {
		return nil
	}
	in.mutOps++
	if in.spec.CrashAt > 0 && in.mutOps == in.spec.CrashAt {
		in.crashed = true
		if in.Obs != nil {
			in.Obs.Counter("fault.crashed").Add(1)
		}
		return &Error{Op: op, Path: path, Kind: Crashed, inFlight: true}
	}
	return nil
}

// roll returns a deterministic pseudo-random value in [0,1) for the next
// injection decision on (op, path).
func (in *Injector) roll(op Op, path string) float64 {
	in.mu.Lock()
	in.seq++
	seq := in.seq
	in.mu.Unlock()
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(in.spec.Seed))
	binary.LittleEndian.PutUint64(b[8:], seq)
	h.Write(b[:])
	h.Write([]byte(op))
	h.Write([]byte(path))
	x := h.Sum64()
	// splitmix64 finalizer whitens the hash before mapping onto [0,1).
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func (in *Injector) count(op Op) {
	in.mu.Lock()
	in.counts[op]++
	in.mu.Unlock()
	if in.Obs != nil {
		in.Obs.Counter("fault.injected." + string(op)).Add(1)
	}
}

// hit rolls one die against probability p and counts the fault when it
// fires; p <= 0 rolls nothing, so a disabled fault class never shifts
// the schedule of the enabled ones.
func (in *Injector) hit(op Op, key string, p float64) bool {
	if p <= 0 || in.roll(op, key) >= p {
		return false
	}
	in.count(op)
	return true
}

// fire decides whether a transient error hits this (op, path) call.
func (in *Injector) fire(op Op, path string) bool { return in.hit(op, path, in.spec.P[op]) }

// fireTorn decides whether this append tears (counted under OpAppend).
// The rate is checked first so fault-free appends build no key string.
func (in *Injector) fireTorn(path string) bool {
	return in.spec.Torn > 0 && in.hit(OpAppend, "torn:"+path, in.spec.Torn)
}

func (in *Injector) lost(path string) bool {
	for _, sub := range in.spec.Lose {
		if sub != "" && strings.Contains(path, sub) {
			return true
		}
	}
	return false
}

// latency charges the configured delay for volume vol through sleep;
// a nil sleeper falls back to real time.  A browned-out volume's delay
// is multiplied by its factor, from a floor of brownoutBaseLatency when
// the volume is otherwise undelayed.
func (in *Injector) latency(vol int, sleep plfs.Sleeper) {
	d := in.spec.Delay + in.spec.SlowVol[vol]
	if fac := in.brownoutFactor(vol); fac > 1 {
		if d <= 0 {
			d = brownoutBaseLatency
		}
		d = time.Duration(float64(d) * fac)
	}
	if d <= 0 {
		return
	}
	if sleep != nil {
		sleep.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Wrap returns b with the injector's faults applied: an interceptor on
// plfs.Interpose, so the wrapped backend has exactly the capabilities of
// the store under it.  vol selects the SlowVol latency entry; sleep is
// how injected latency is charged (use the plfs.Ctx's Sleeper so
// simulated latency rides the virtual clock; nil sleeps in real time).
func (in *Injector) Wrap(b plfs.Backend, vol int, sleep plfs.Sleeper) plfs.Backend {
	return plfs.Interpose(b, gate{in: in, vol: vol, sleep: sleep}.intercept)
}

// WrapVols wraps a context's whole volume set (see Wrap).
func (in *Injector) WrapVols(vols []plfs.Backend, sleep plfs.Sleeper) []plfs.Backend {
	out := make([]plfs.Backend, len(vols))
	for i, v := range vols {
		out[i] = in.Wrap(v, i, sleep)
	}
	return out
}

// classOf maps each interposed call onto its fault class.  CreateBulk
// has none of its own: its entries gate as OpMkdir or OpCreate.
var classOf = [...]Op{
	plfs.OpMkdir:       OpMkdir,
	plfs.OpCreate:      OpCreate,
	plfs.OpOpenRead:    OpOpen,
	plfs.OpOpenWrite:   OpOpen,
	plfs.OpStat:        OpStat,
	plfs.OpReadDir:     OpReadDir,
	plfs.OpRemove:      OpRemove,
	plfs.OpRename:      OpRename,
	plfs.OpPutIfAbsent: OpPut,
	plfs.OpPutReplace:  OpPut,
	plfs.OpWriteAt:     OpWrite,
	plfs.OpWritevAt:    OpWrite,
	plfs.OpReadAt:      OpRead,
	plfs.OpReadvAt:     OpRead,
	plfs.OpAppend:      OpAppend,
	plfs.OpAppendv:     OpAppend,
}

// gate is one wrapped volume's view of the injector.
type gate struct {
	in    *Injector
	vol   int
	sleep plfs.Sleeper
}

// admit is the part of the injection decision every call faces exactly
// once, however many pieces it carries.  The crash check comes first: a
// crashed store charges no latency and rolls no probabilistic faults, it
// is simply gone.
func (g gate) admit(op Op, path string) *Error {
	if err := g.in.crashCheck(op, path); err != nil {
		return err
	}
	g.in.latency(g.vol, g.sleep)
	if g.in.lost(path) {
		return &Error{Op: op, Path: path, Kind: Lost}
	}
	return nil
}

// dice rolls the transient dice (configured rate, then brownout rate)
// for one call or one piece of a batched call.
func (g gate) dice(op Op, path string) bool {
	return g.in.fire(op, path) || g.in.fireBrownout(op, path, g.vol)
}

// intercept is the plfs.Interceptor: admit, roll the dice, forward.
//
// A batched call (WritevAt, ReadvAt, Appendv) charges one latency and
// counts as one mutating operation — that is the point of batching —
// but every extent or payload piece rolls its own dice in order, so
// coverage matches the equivalent per-piece loop.  Transient errors fire
// before any byte lands, so a retry reissues cleanly (WriteAt is
// idempotent at its offsets; a failed read returns nothing).  Appends
// are the exception, with prefix semantics defined exactly: the pieces
// before the first failing one land, a torn failure additionally lands
// half of the failing piece, and an append in flight at the crash point
// lands its first half (of the bytes, or of the batch) — half the
// payload is on disk when the machine dies.  A failure on the first
// piece is a clean Transient; any later one is permanent and reports
// TornWrite() so retry loops rebuild instead of reissuing in place.  A
// conditional PUT is atomic by the backend's contract: a crash or
// transient on it means it did not apply, never a torn variant.
func (g gate) intercept(o *plfs.Op, call func() error) error {
	if o.Kind == plfs.OpCreateBulk {
		g.bulk(o, call)
		return nil
	}
	op, path := classOf[o.Kind], o.Path
	if err := g.admit(op, path); err != nil {
		switch {
		case !err.inFlight:
		case o.Kind == plfs.OpAppend:
			land(o, call, halfOf(nil, o.Data[0]))
		case o.Kind == plfs.OpAppendv:
			land(o, call, o.Data[:len(o.Data)/2])
		}
		return err
	}
	pieces := 1
	switch o.Kind {
	case plfs.OpWritevAt, plfs.OpReadvAt:
		pieces = max(1, len(o.Segs))
	case plfs.OpAppend, plfs.OpAppendv:
		pieces = len(o.Data)
	}
	for i := 0; i < pieces; i++ {
		if g.dice(op, path) {
			if i == 0 || op != OpAppend {
				return &Error{Op: op, Path: path, Kind: Transient}
			}
			land(o, call, o.Data[:i])
			return &Error{Op: op, Path: path, Kind: Torn}
		}
		if op == OpAppend && g.in.fireTorn(path) {
			// A fresh prefix: appending the half piece in place would
			// overwrite the caller's o.Data[i].
			land(o, call, halfOf(append(payload.List(nil), o.Data[:i]...), o.Data[i]))
			return &Error{Op: op, Path: path, Kind: Torn}
		}
	}
	if o.Kind == plfs.OpRename && g.in.lost(o.Path2) {
		return &Error{Op: op, Path: o.Path2, Kind: Lost}
	}
	return call()
}

// halfOf extends prefix with the first half of p (nothing, when p is
// shorter than two bytes).
func halfOf(prefix payload.List, p payload.Payload) payload.List {
	if half := p.Len() / 2; half > 0 {
		prefix = append(prefix, p.Slice(0, half))
	}
	return prefix
}

// land lands a prefix of an append before its failure is reported,
// dropping the outcome (an empty prefix is no backend call at all).
func land(o *plfs.Op, call func() error, prefix payload.List) {
	if len(prefix) > 0 {
		o.Data = prefix
		call()
	}
}

// bulk gates each entry of a bulk create individually as one mutating
// op — mkdirs as OpMkdir, files as OpCreate — so a crashat point
// mid-batch applies a strict prefix: the entries before the crash are
// shipped to the store's bulk RPC and land, the rest report Crashed.
// That is the server-side semantics of a real MDS bulk commit dying
// partway through its journal, and it keeps the crash-torture sweep's op
// schedule honest.
func (g gate) bulk(o *plfs.Op, call func() error) {
	ops := o.Bulk
	errs := make([]error, len(ops))
	var pass []plfs.BulkOp
	var passIdx []int
	for i, e := range ops {
		op := OpCreate
		if e.Dir {
			op = OpMkdir
		}
		err := g.admit(op, e.Path)
		if err == nil && g.dice(op, e.Path) {
			err = &Error{Op: op, Path: e.Path, Kind: Transient}
		}
		if err != nil {
			errs[i] = err
			continue
		}
		pass = append(pass, e)
		passIdx = append(passIdx, i)
	}
	o.Bulk = pass
	call()
	for j, err := range o.BulkErrs {
		errs[passIdx[j]] = err
	}
	o.BulkErrs = errs
}
