package fault_test

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"plfs/internal/extent"
	"plfs/internal/fault"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"seed=7",
		"seed=7,all=0.05",
		"open=0.1,read=0.2,torn=0.01",
		"delay=2ms,slow=0:5ms,slow=3:1ms",
		"lose=hostdir.3,lose=dropping.index",
		"brownout=1:8",
		"seed=3,all=0.02,brownout=0:4,brownout=2:16",
	}
	for _, s := range cases {
		spec, err := fault.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		// Re-parsing the canonical form must yield the same spec.
		again, err := fault.ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q <- %q): %v", spec.String(), s, err)
		}
		if spec.String() != again.String() {
			t.Errorf("round trip %q -> %q -> %q", s, spec.String(), again.String())
		}
	}
}

// invalidSpecs parse as key=value but ask for what String cannot render
// back: NaN probabilities, negative durations and volumes, and an empty
// lost-path substring, which would lose every path.
var invalidSpecs = []string{
	"all=NaN", "torn=NaN", "delay=-1s", "slow=1:-5ms", "slow=-3:5ms",
	"brownout=-2:3", "brownout=0:NaN", "brownout=0:+Inf", "lose=",
}

func TestParseSpecRejects(t *testing.T) {
	for _, s := range append([]string{"bogus", "all=1.5", "all=-0.1", "seed=x", "delay=fast", "slow=0", "frob=0.5"}, invalidSpecs...) {
		if _, err := fault.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

// validSpec reports what in s no flag should be able to ask for.
func validSpec(s fault.Spec) error {
	prob := func(p float64) bool { return p >= 0 && p <= 1 }
	for op, p := range s.P {
		if !prob(p) {
			return fmt.Errorf("%s probability %v", op, p)
		}
	}
	if !prob(s.Torn) {
		return fmt.Errorf("torn probability %v", s.Torn)
	}
	if s.Delay < 0 || s.CrashAt < 0 {
		return fmt.Errorf("delay %v, crashat %d", s.Delay, s.CrashAt)
	}
	for vol, d := range s.SlowVol {
		if vol < 0 || d < 0 {
			return fmt.Errorf("slow volume %d by %v", vol, d)
		}
	}
	for _, l := range s.Lose {
		if l == "" {
			return errors.New("empty lost-path substring")
		}
	}
	for vol, f := range s.Brownout {
		if vol < 0 || !(f > 1) || math.IsInf(f, 0) {
			return fmt.Errorf("brownout volume %d by %v", vol, f)
		}
	}
	return nil
}

// FuzzParseSpec: a spec that parses is valid, and its String parses
// back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range invalidSpecs {
		f.Add(s)
	}
	f.Add("seed=3,all=0.02,read=0.5,torn=0.01,delay=2ms,slow=0:5ms,lose=hostdir.3,crashat=7,brownout=2:16")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := fault.ParseSpec(s)
		if err != nil {
			return
		}
		if err := validSpec(spec); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", s, err)
		}
		again, err := fault.ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q), from %q: %v", spec.String(), s, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v", s, spec, spec.String(), again)
		}
	})
}

// TestDeterminism: the same seed and call sequence must inject the same
// faults; a different seed must (for this spec) differ.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		in := fault.New(fault.Spec{Seed: seed, P: map[fault.Op]float64{fault.OpStat: 0.5}})
		b := in.Wrap(osfs.New(), 0, nil)
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := b.Stat("/nonexistent")
			var fe *fault.Error
			out = append(out, errors.As(err, &fe))
		}
		return out
	}
	a, b, c := run(1), run(1), run(2)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Errorf("same seed produced different schedules")
	}
	if !diff {
		t.Errorf("different seeds produced identical schedules")
	}
}

// TestTornAppend: with torn=1 every append lands exactly half its
// payload and fails permanently (not retryable).
func TestTornAppend(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Spec{Seed: 1, Torn: 1})
	b := in.Wrap(osfs.New(), 0, nil)
	f, err := b.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Append(payload.Synthetic(1, 0, 100))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Torn {
		t.Fatalf("append error = %v, want torn fault", err)
	}
	if fe.Transient() {
		t.Errorf("torn append claims to be transient")
	}
	if got := f.Size(); got != 50 {
		t.Errorf("torn append landed %d bytes, want 50", got)
	}
}

// TestLose: operations on lost paths fail with something that unwraps to
// ErrNotExist; other paths are untouched.
func TestLose(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Spec{Seed: 1, Lose: []string{"gone"}})
	b := in.Wrap(osfs.New(), 0, nil)
	if f, err := b.Create(filepath.Join(dir, "ok")); err != nil {
		t.Fatalf("untouched path: %v", err)
	} else {
		f.Close()
	}
	_, err := b.Create(filepath.Join(dir, "gone"))
	if !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("lost path error = %v, want ErrNotExist", err)
	}
	if plfs.Retryable(err) {
		t.Errorf("lost-path error is retryable")
	}
}

type recordSleeper struct{ total time.Duration }

func (s *recordSleeper) Sleep(d time.Duration) { s.total += d }

// TestLatency: Delay and SlowVol are charged through the provided
// sleeper, not real time.
func TestLatency(t *testing.T) {
	in := fault.New(fault.Spec{
		Seed:    1,
		Delay:   2 * time.Millisecond,
		SlowVol: map[int]time.Duration{1: 5 * time.Millisecond},
	})
	fast := &recordSleeper{}
	slow := &recordSleeper{}
	b0 := in.Wrap(osfs.New(), 0, fast)
	b1 := in.Wrap(osfs.New(), 1, slow)
	b0.Stat("/nonexistent")
	b1.Stat("/nonexistent")
	if fast.total != 2*time.Millisecond {
		t.Errorf("vol 0 charged %v, want 2ms", fast.total)
	}
	if slow.total != 7*time.Millisecond {
		t.Errorf("vol 1 charged %v, want 7ms", slow.total)
	}
}

// TestTransientRetryable: injected transient errors advertise
// themselves to the retry policy; counts are visible via Injected.
func TestTransientRetryable(t *testing.T) {
	in := fault.New(fault.Spec{Seed: 1, P: map[fault.Op]float64{fault.OpMkdir: 1}})
	b := in.Wrap(osfs.New(), 0, nil)
	err := b.Mkdir(filepath.Join(t.TempDir(), "d"))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Transient {
		t.Fatalf("mkdir error = %v, want transient fault", err)
	}
	if !plfs.Retryable(err) {
		t.Errorf("transient fault not retryable")
	}
	if got := in.Injected()[fault.OpMkdir]; got != 1 {
		t.Errorf("Injected()[mkdir] = %d, want 1", got)
	}
}

// TestCrashAt: the crash point fires on exactly the K-th mutating
// operation, tears the append in flight, and freezes the backend — every
// later operation (mutating or not) fails, while the pre-crash on-disk
// state stays reopenable through an unwrapped backend.
func TestCrashAt(t *testing.T) {
	dir := t.TempDir()
	spec, err := fault.ParseSpec("crashat=3")
	if err != nil {
		t.Fatal(err)
	}
	if spec.CrashAt != 3 {
		t.Fatalf("CrashAt = %d, want 3", spec.CrashAt)
	}
	if again, err := fault.ParseSpec(spec.String()); err != nil || again.CrashAt != 3 {
		t.Fatalf("round trip %q: %v (crashat=%d)", spec.String(), err, again.CrashAt)
	}
	in := fault.New(spec)
	b := in.Wrap(osfs.New(), 0, nil)

	// Op 1: create.  Op 2: append (lands whole).
	f, err := b.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatalf("op 1 create: %v", err)
	}
	if _, err := f.Append(payload.Synthetic(1, 0, 100)); err != nil {
		t.Fatalf("op 2 append: %v", err)
	}
	if in.Crashed() {
		t.Fatal("crashed before the crash point")
	}
	// Op 3: the crash point — a torn prefix lands, then the error.
	_, err = f.Append(payload.Synthetic(1, 100, 100))
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Crashed {
		t.Fatalf("op 3 error = %v, want crashed fault", err)
	}
	if !fe.TornWrite() {
		t.Error("in-flight crash op does not report TornWrite")
	}
	if fe.Transient() || plfs.Retryable(err) {
		t.Error("crashed error must not be transient/retryable")
	}
	if !in.Crashed() || in.MutatingOps() != 3 {
		t.Fatalf("crashed=%v mutOps=%d, want true/3", in.Crashed(), in.MutatingOps())
	}

	// Post-crash: everything fails, including reads and non-mutating ops.
	if _, err := b.Stat(filepath.Join(dir, "x")); err == nil {
		t.Error("stat succeeded after crash")
	}
	if _, err := b.Create(filepath.Join(dir, "y")); err == nil {
		t.Error("create succeeded after crash")
	}
	var fe2 *fault.Error
	_, err = b.OpenRead(filepath.Join(dir, "x"))
	if !errors.As(err, &fe2) || fe2.Kind != fault.Crashed {
		t.Fatalf("post-crash open error = %v, want crashed fault", err)
	}
	if fe2.TornWrite() {
		t.Error("post-crash op (not in flight) claims TornWrite")
	}
	if errors.Is(err, iofs.ErrNotExist) {
		t.Error("crashed error unwraps to ErrNotExist")
	}

	// The frozen state: the full op-2 append plus the op-3 torn prefix (half
	// of 100 bytes).  What is asserted is what the injector handed to the
	// store, not when the kernel got it — osfs holds small appends back, so
	// flush the leaf handle before looking from outside.
	if err := plfs.LeafFile(f).(plfs.Flusher).Flush(); err != nil {
		t.Fatalf("flush leaf handle: %v", err)
	}
	fi, err := osfs.New().Stat(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatalf("unwrapped reopen: %v", err)
	}
	if fi.Size != 150 {
		t.Fatalf("post-crash size %d, want 150 (100 committed + 50 torn)", fi.Size)
	}
}

// TestCrashAtCountsOnlyMutatingOps: reads and stats never advance the
// crash counter, so op indexes enumerate commit boundaries, not traffic.
func TestCrashAtCountsOnlyMutatingOps(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Spec{CrashAt: 2})
	b := in.Wrap(osfs.New(), 0, nil)
	f, err := b.Create(filepath.Join(dir, "x")) // mutating op 1
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < 5; i++ { // non-mutating: must not trip the crash
		if _, err := b.Stat(filepath.Join(dir, "x")); err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
	}
	if err := b.Mkdir(filepath.Join(dir, "d")); err == nil { // mutating op 2
		t.Fatal("op 2 mkdir did not crash")
	}
	if in.MutatingOps() != 2 {
		t.Fatalf("mutOps = %d, want 2", in.MutatingOps())
	}
}

// TestParseSpecRejectsBadCrashAt: zero and negative crash points are
// configuration errors, not no-ops.
func TestParseSpecRejectsBadCrashAt(t *testing.T) {
	for _, s := range []string{"crashat=0", "crashat=-1", "crashat=x"} {
		if _, err := fault.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

// TestParseSpecRejectsBadBrownout: a brownout needs VOL:FACTOR with a
// factor strictly above 1 (1 would be a no-op pretending to degrade).
func TestParseSpecRejectsBadBrownout(t *testing.T) {
	for _, s := range []string{"brownout=0", "brownout=x:8", "brownout=0:1", "brownout=0:0.5", "brownout=0:x"} {
		if _, err := fault.ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

// TestBatchedAppendInjectable: a batched append through the injector
// must face per-piece injection with defined prefix semantics, not
// bypass it.  (That the injector forwards Appendv faithfully when no die
// fires is the conformance suite's "fault" stack, not this test.)
func TestBatchedAppendInjectable(t *testing.T) {
	mk := func(spec fault.Spec, name string) (plfs.File, *fault.Injector) {
		in := fault.New(spec)
		b := in.Wrap(osfs.New(), 0, nil)
		f, err := b.Create(filepath.Join(t.TempDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		return f, in
	}
	batch := payload.List{payload.Synthetic(1, 0, 100), payload.Synthetic(1, 100, 100)}

	// append=1: the first piece's die always fires — a clean transient,
	// nothing landed, retry may reissue.
	f, in := mk(fault.Spec{Seed: 1, P: map[fault.Op]float64{fault.OpAppend: 1}}, "x")
	_, err := f.Appendv(batch)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Kind != fault.Transient {
		t.Fatalf("batched append error = %v, want transient fault", err)
	}
	if got := f.Size(); got != 0 {
		t.Errorf("failed-first-piece batch landed %d bytes, want 0", got)
	}
	if in.Injected()[fault.OpAppend] == 0 {
		t.Error("injector did not count the batched append fault")
	}
	f.Close()

	// torn=1: the first piece tears — half of it lands, permanent error.
	f, _ = mk(fault.Spec{Seed: 1, Torn: 1}, "y")
	_, err = f.Appendv(batch)
	if !errors.As(err, &fe) || fe.Kind != fault.Torn {
		t.Fatalf("torn batched append error = %v, want torn fault", err)
	}
	if got := f.Size(); got != 50 {
		t.Errorf("torn batch landed %d bytes, want 50 (half of piece 0)", got)
	}
	f.Close()

	// append=0.5 over many seeds: every outcome must be one of the three
	// defined states (nothing / piece 0 exactly / both), a mid-batch
	// failure must occur at least once, and it must report TornWrite so
	// in-place retries know a prefix landed.
	sawMid := false
	for seed := int64(1); seed <= 64; seed++ {
		f, _ := mk(fault.Spec{Seed: seed, P: map[fault.Op]float64{fault.OpAppend: 0.5}}, "z")
		_, err := f.Appendv(batch)
		got := f.Size()
		switch {
		case err == nil && got == 200:
		case err != nil && got == 0:
		case err != nil && got == 100:
			sawMid = true
			var tw interface{ TornWrite() bool }
			if !errors.As(err, &tw) || !tw.TornWrite() {
				t.Fatalf("seed %d: mid-batch failure does not report TornWrite: %v", seed, err)
			}
		default:
			t.Fatalf("seed %d: undefined batch state: size=%d err=%v", seed, got, err)
		}
		f.Close()
	}
	if !sawMid {
		t.Error("no mid-batch failure in 64 seeds; per-piece dice not rolling")
	}
}

// TestVectoredInjectable: vectored calls roll one die per extent, so
// with read=0.5 a two-extent ReadvAt must fail more often than the
// one-die ReadAt next to it, and a failed vectored write lands nothing.
// (The fault-free round trip is the conformance suite's "fault" stack.)
func TestVectoredInjectable(t *testing.T) {
	dir := t.TempDir()
	segs := []extent.Ext{{Off: 0, Len: 64}, {Off: 128, Len: 64}}
	data := payload.List{payload.Synthetic(1, 0, 64), payload.Synthetic(1, 64, 64)}
	f, err := osfs.New().Create(filepath.Join(dir, "v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WritevAt(segs, data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var single, vectored int
	for seed := int64(1); seed <= 200; seed++ {
		in := fault.New(fault.Spec{Seed: seed, P: map[fault.Op]float64{fault.OpRead: 0.5}})
		f, err := in.Wrap(osfs.New(), 0, nil).OpenRead(filepath.Join(dir, "v"))
		if err != nil { // OpOpen is untouched by the read probability
			t.Fatal(err)
		}
		var fe *fault.Error
		if _, err := f.ReadAt(0, 64); errors.As(err, &fe) && fe.Kind == fault.Transient {
			single++
		}
		if pl, err := f.ReadvAt(segs); errors.As(err, &fe) && fe.Kind == fault.Transient {
			vectored++
			if pl != nil {
				t.Fatalf("seed %d: failed vectored read returned bytes", seed)
			}
		}
		f.Close()
	}
	// p = 0.5 per die: ~100 of 200 single reads fail, ~150 of 200
	// two-extent reads.  The margin is wide enough for any seed stream.
	if vectored <= single+20 {
		t.Errorf("vectored reads failed %d/200, single %d/200: extents are not rolling their own dice", vectored, single)
	}

	in := fault.New(fault.Spec{Seed: 1, P: map[fault.Op]float64{fault.OpWrite: 1}})
	w, err := in.Wrap(osfs.New(), 0, nil).Create(filepath.Join(dir, "w"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var fe *fault.Error
	if err := w.WritevAt(segs, data); !errors.As(err, &fe) || fe.Kind != fault.Transient {
		t.Fatalf("vectored write error = %v, want transient fault", err)
	}
	if w.Size() != 0 {
		t.Errorf("failed vectored write landed %d bytes, want 0", w.Size())
	}
}

// TestBrownout: a browned-out volume charges multiplied latency through
// its sleeper, fails transiently at the elevated rate, and recovers
// exactly when the harness clears the brownout.
func TestBrownout(t *testing.T) {
	spec, err := fault.ParseSpec("seed=1,delay=1ms,brownout=1:8")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(spec)
	healthy := &recordSleeper{}
	browned := &recordSleeper{}
	b0 := in.Wrap(osfs.New(), 0, healthy)
	b1 := in.Wrap(osfs.New(), 1, browned)
	b0.Stat("/nonexistent")
	b1.Stat("/nonexistent")
	if healthy.total != time.Millisecond {
		t.Errorf("healthy vol charged %v, want 1ms", healthy.total)
	}
	if browned.total != 8*time.Millisecond {
		t.Errorf("browned-out vol charged %v, want 8ms", browned.total)
	}

	// No configured delay: the brownout floor applies (250us x factor).
	in2 := fault.New(fault.Spec{Seed: 1, Brownout: map[int]float64{0: 4}})
	s2 := &recordSleeper{}
	in2.Wrap(osfs.New(), 0, s2).Stat("/nonexistent")
	if s2.total != time.Millisecond {
		t.Errorf("floor brownout charged %v, want 1ms (250us x 4)", s2.total)
	}

	// Elevated transient rate: stats on the browned-out volume fail
	// sometimes; the healthy volume injects nothing.
	in3 := fault.New(fault.Spec{Seed: 1, Brownout: map[int]float64{1: 8}})
	h3 := in3.Wrap(osfs.New(), 0, &recordSleeper{})
	d3 := in3.Wrap(osfs.New(), 1, &recordSleeper{})
	dir := t.TempDir()
	if f, err := osfs.New().Create(filepath.Join(dir, "x")); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	fails := 0
	for i := 0; i < 400; i++ {
		if _, err := h3.Stat(filepath.Join(dir, "x")); err != nil {
			t.Fatalf("healthy vol injected: %v", err)
		}
		var fe *fault.Error
		if _, err := d3.Stat(filepath.Join(dir, "x")); errors.As(err, &fe) {
			fails++
		}
	}
	if fails == 0 {
		t.Error("browned-out volume injected no transients in 400 ops")
	}

	// Dynamic control: clearing the brownout restores healthy behavior.
	in3.ClearBrownout(1)
	s4 := &recordSleeper{}
	d4 := in3.Wrap(osfs.New(), 1, s4)
	for i := 0; i < 400; i++ {
		if _, err := d4.Stat(filepath.Join(dir, "x")); err != nil {
			t.Fatalf("cleared brownout still injecting: %v", err)
		}
	}
	if s4.total != 0 {
		t.Errorf("cleared brownout still charging latency: %v", s4.total)
	}
	in3.SetBrownout(1, 16)
	s5 := &recordSleeper{}
	in3.Wrap(osfs.New(), 1, s5).Stat(filepath.Join(dir, "x"))
	if s5.total != 4*time.Millisecond {
		t.Errorf("re-set brownout charged %v, want 4ms (250us x 16)", s5.total)
	}
}
