package plfs_test

// Tests for the self-healing layer: per-volume circuit breakers, hedged
// index reads with replica failover, and the background repair path.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"plfs/internal/obs"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestBreakerLifecycle drives one volume's breaker through the full
// state machine: closed -> open after the failure threshold, half-open
// once the cooldown elapses, back to open (doubled cooldown) on a lost
// probe, and closed again on a won probe; then lost probes double the
// cooldown up to its cap and no further.
func TestBreakerLifecycle(t *testing.T) {
	h := plfs.NewHealth()
	const vol = "/vol0"
	boom := errors.New("io error")
	var now int64

	if got := h.State(vol, now); got != plfs.BreakerClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}

	// Namespace errors are neutral: they never trip the breaker.
	for i := 0; i <= plfs.FailureThreshold; i++ {
		h.Observe(vol, now, 0, fs.ErrNotExist)
	}
	if got := h.State(vol, now); got != plfs.BreakerClosed {
		t.Fatalf("state after ErrNotExist = %v, want closed", got)
	}

	// One failure short of the threshold: still closed.
	for i := 1; i < plfs.FailureThreshold; i++ {
		h.Observe(vol, now, 0, boom)
	}
	if got := h.State(vol, now); got != plfs.BreakerClosed {
		t.Fatalf("state after %d failures = %v, want closed", plfs.FailureThreshold-1, got)
	}
	// A success resets the consecutive count.
	h.Observe(vol, now, time.Microsecond, nil)
	for i := 1; i < plfs.FailureThreshold; i++ {
		h.Observe(vol, now, 0, boom)
	}
	if got := h.State(vol, now); got != plfs.BreakerClosed {
		t.Fatalf("success did not reset consecutive failures")
	}

	// The threshold-th consecutive failure opens the breaker.
	h.Observe(vol, now, 0, boom)
	if got := h.State(vol, now); got != plfs.BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if !h.Avoid(vol, now) {
		t.Fatalf("open breaker should be avoided")
	}

	// Before the cooldown: still open.
	if got := h.State(vol, now+int64(plfs.ProbeAfter/2)); got != plfs.BreakerOpen {
		t.Fatalf("state mid-cooldown = %v, want open", got)
	}
	// Cooldown elapsed: the asking caller becomes the probe.
	now += int64(plfs.ProbeAfter)
	if got := h.State(vol, now); got != plfs.BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if h.Avoid(vol, now) {
		t.Fatalf("half-open breaker must not be avoided (probe has to land)")
	}

	// Lost probe: reopen with doubled cooldown.
	h.Observe(vol, now, 0, boom)
	if got := h.State(vol, now+int64(plfs.ProbeAfter)); got != plfs.BreakerOpen {
		t.Fatalf("doubled cooldown not honored: half-open too early")
	}
	now += int64(2 * plfs.ProbeAfter)
	if got := h.State(vol, now); got != plfs.BreakerHalfOpen {
		t.Fatalf("state after doubled cooldown = %v, want half-open", got)
	}

	// Won probe: closed, counters tally the whole journey.
	h.Observe(vol, now, time.Microsecond, nil)
	if got := h.State(vol, now); got != plfs.BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	snap := h.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d vols, want 1", len(snap))
	}
	v := snap[0]
	if v.Opens != 2 || v.Probes != 2 || v.ProbeOK != 1 {
		t.Errorf("counters = opens %d probes %d probeOK %d, want 2/2/1",
			v.Opens, v.Probes, v.ProbeOK)
	}
	if want := int64(2 * plfs.FailureThreshold); v.Failures != want {
		t.Errorf("failures = %d, want %d", v.Failures, want)
	}

	// Publish renders gauges for the volume.
	reg := obs.New()
	h.Publish(reg)
	if g := reg.Gauge("plfs.health." + vol + ".probe_ok").Value(); g != 1 {
		t.Errorf("published probe_ok gauge = %v, want 1", g)
	}

	// Reopen, then lose probe after probe: each doubles the cooldown,
	// which stops at MaxProbeAfter.
	for i := 0; i < plfs.FailureThreshold; i++ {
		h.Observe(vol, now, 0, boom)
	}
	cool := plfs.ProbeAfter
	for cool <= 2*plfs.MaxProbeAfter {
		now += int64(min(cool, plfs.MaxProbeAfter))
		if got := h.State(vol, now); got != plfs.BreakerHalfOpen {
			t.Fatalf("cooldown %v: state = %v, want half-open", cool, got)
		}
		h.Observe(vol, now, 0, boom)
		cool *= 2
		if got := h.State(vol, now+int64(min(cool, plfs.MaxProbeAfter))-1); got != plfs.BreakerOpen {
			t.Fatalf("cooldown %v: state = %v just before it elapsed, want open", cool, got)
		}
	}
}

// TestBreakerSlowOps checks that successful-but-slow operations count
// toward opening once the rolling window has enough healthy samples.
func TestBreakerSlowOps(t *testing.T) {
	h := plfs.NewHealth()
	const vol = "/vol0"
	// Warm the data-class window with healthy 1ms samples; p99 ~ 1ms so
	// the slow cutoff becomes SlowFactor ms.  Slow() consults the data
	// class (hedging decisions are about index reads).
	for i := 0; i < plfs.MinSamples; i++ {
		h.ObserveData(vol, 0, time.Millisecond, 0, nil)
	}
	slow := (plfs.SlowFactor + 1) * time.Millisecond
	if h.Slow(vol, time.Millisecond, 0) {
		t.Fatalf("1ms should not be slow against a 1ms baseline")
	}
	if !h.Slow(vol, slow, 0) {
		t.Fatalf("%v should be slow against a 1ms baseline", slow)
	}
	for i := 1; i < plfs.FailureThreshold; i++ {
		h.ObserveData(vol, 0, slow, 0, nil)
	}
	if got := h.State(vol, 0); got != plfs.BreakerClosed {
		t.Fatalf("state after %d slow ops = %v, want closed", plfs.FailureThreshold-1, got)
	}
	h.ObserveData(vol, 0, slow, 0, nil)
	if got := h.State(vol, 0); got != plfs.BreakerOpen {
		t.Fatalf("state after %d slow ops = %v, want open", plfs.FailureThreshold, got)
	}
	snap := h.Snapshot()
	if snap[0].SlowOps != plfs.FailureThreshold {
		t.Errorf("slow ops = %d, want %d", snap[0].SlowOps, plfs.FailureThreshold)
	}
}

// replicatedRig writes a known single-writer container under
// IndexReplicas: 2 on two volumes and returns the rig plus the
// canonical (primary) root — the one holding the container skeleton.
func replicatedRig(t *testing.T, opt plfs.Options, name string) (*rig, string) {
	t.Helper()
	opt.IndexReplicas = 2
	r := newRig(t, 2, opt)
	ctx := r.ctx(0, nil)
	writeN1(t, r.m, ctx, 0, 1, 4, 1024, name)
	primary := ""
	for _, root := range r.roots {
		if _, err := os.Stat(filepath.Join(root, name, ".plfsaccess")); err == nil {
			primary = root
		}
	}
	if primary == "" {
		t.Fatalf("no volume holds the container skeleton")
	}
	return r, primary
}

// TestIndexReplicaFailover is the acceptance check: losing the primary
// index dropping with IndexReplicas: 2 must be invisible — the read
// fails over to the replica, returns byte-identical data, and skips no
// shards even with AllowPartial enabled.
func TestIndexReplicaFailover(t *testing.T) {
	r, primary := replicatedRig(t, plfs.Options{AllowPartial: true}, "f")
	ix := globOne(t, filepath.Join(primary, "f", "hostdir.*", "dropping.index.*"))
	if err := os.Remove(ix); err != nil {
		t.Fatalf("remove primary index: %v", err)
	}

	ctx := r.ctx(0, nil)
	ctx.Obs = obs.New()
	rd, err := r.m.OpenReader(ctx, "f")
	if err != nil {
		t.Fatalf("open after primary index loss: %v", err)
	}
	defer rd.Close()
	if len(rd.Stats.SkippedShards) != 0 {
		t.Fatalf("SkippedShards = %v, want none (replica should cover)", rd.Stats.SkippedShards)
	}
	verifyN1(t, rd, 1, 4, 1024)
	if got := ctx.Obs.Counter("plfs.replica.failover").Value(); got == 0 {
		t.Errorf("plfs.replica.failover = 0, want > 0")
	}
}

// TestGlobalIndexReplicaFailover loses the committed global index and
// expects the replica copy to serve the flattened open.
func TestGlobalIndexReplicaFailover(t *testing.T) {
	r, primary := replicatedRig(t, plfs.Options{IndexMode: plfs.IndexFlatten}, "g")
	// Flatten the index via a serial open, then lose the primary copy.
	ctx := r.ctx(0, nil)
	if err := r.m.Flatten(ctx, "g"); err != nil {
		t.Fatalf("flatten: %v", err)
	}
	gp := filepath.Join(primary, "g", "meta", "global.index")
	if _, err := os.Stat(gp); err != nil {
		t.Fatalf("global index missing after flatten: %v", err)
	}
	if err := os.Remove(gp); err != nil {
		t.Fatalf("remove global index: %v", err)
	}
	rd, err := r.m.OpenReader(r.ctx(0, nil), "g")
	if err != nil {
		t.Fatalf("open after global index loss: %v", err)
	}
	defer rd.Close()
	verifyN1(t, rd, 1, 4, 1024)
}

// TestHedgedReadAvoidsOpenBreaker forces the primary volume's breaker
// open and expects index reads to route to the replica first, charging
// the hedge counters.
func TestHedgedReadAvoidsOpenBreaker(t *testing.T) {
	r, primary := replicatedRig(t, plfs.Options{HedgedReads: true}, "h")
	h := r.m.Health()
	if h == nil {
		t.Fatalf("mount with HedgedReads has no health table")
	}
	boom := errors.New("io error")
	now := r.clock.Now()
	for i := 0; i < 8; i++ {
		h.Observe(primary, now, 0, boom)
	}
	if !h.Avoid(primary, now) {
		t.Fatalf("primary breaker should be open")
	}

	ctx := r.ctx(0, nil)
	ctx.Obs = obs.New()
	rd, err := r.m.OpenReader(ctx, "h")
	if err != nil {
		t.Fatalf("open with open primary breaker: %v", err)
	}
	defer rd.Close()
	verifyN1(t, rd, 1, 4, 1024)
	if got := ctx.Obs.Counter("plfs.read.hedged").Value(); got == 0 {
		t.Errorf("plfs.read.hedged = 0, want > 0")
	}
	if got := ctx.Obs.Counter("plfs.read.hedge_wins").Value(); got == 0 {
		t.Errorf("plfs.read.hedge_wins = 0, want > 0")
	}
}

// sumSleeper tallies charged virtual time.
type sumSleeper struct{ total time.Duration }

func (s *sumSleeper) Sleep(d time.Duration) { s.total += d }

// serviceCtx builds a serial HostLeader context for a service mount.
func serviceCtx(roots []string, clock plfs.Clock) plfs.Ctx {
	vols := make([]plfs.Backend, len(roots))
	for i := range vols {
		vols[i] = osfs.New()
	}
	return plfs.Ctx{Vols: vols, HostLeader: true, Clock: clock}
}

// TestRepairContainer exercises Repair's three index paths one by one:
// re-replicating a lost replica, restoring a lost primary from its
// replica, and rebuilding a dropping whose copies are all gone from the
// data file's recovery footer — verifying read-back after each.
func TestRepairContainer(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir()}
	svc := plfs.NewService(plfs.ServiceOptions{})
	m := svc.Mount(roots, plfs.Options{IndexReplicas: 2})
	clock := &fakeClock{}
	ctx := serviceCtx(roots, clock)

	w, err := m.Create(ctx, "c")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for k := 0; k < 4; k++ {
		off := int64(k) * 1024
		if err := w.Write(off, payload.Synthetic(1, off, 1024)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	primary := ""
	for _, root := range roots {
		if _, err := os.Stat(filepath.Join(root, "c", ".plfsaccess")); err == nil {
			primary = root
		}
	}
	replica := roots[0]
	if primary == roots[0] {
		replica = roots[1]
	}
	prIx := globOne(t, filepath.Join(primary, "c", "hostdir.*", "dropping.index.*"))
	repIx := globOne(t, filepath.Join(replica, "c", "hostdir.*", "dropping.index.*"))

	verify := func(stage string) {
		t.Helper()
		rd, err := m.OpenReader(serviceCtx(roots, clock), "c")
		if err != nil {
			t.Fatalf("%s: open: %v", stage, err)
		}
		defer rd.Close()
		verifyN1(t, rd, 1, 4, 1024)
	}
	// The deep passes count their findings into the caller's registry.
	reg := obs.New()
	repair := func(stage string, wantRepaired int) plfs.Report {
		t.Helper()
		rctx := serviceCtx(roots, clock)
		rctx.Obs = reg
		rep, err := m.Repair(rctx, "c")
		if err != nil {
			t.Fatalf("%s: repair: %v", stage, err)
		}
		if rep.Repaired() != wantRepaired || rep.Unrepairable() != 0 {
			t.Fatalf("%s: repaired %d unrepairable %d, want %d/0\n%s",
				stage, rep.Repaired(), rep.Unrepairable(), wantRepaired, rep)
		}
		return rep
	}

	// A healthy container repairs nothing.
	repair("healthy", 0)

	// 1. Lost replica: the scrub re-replicates from the primary.
	if err := os.Remove(repIx); err != nil {
		t.Fatalf("remove replica: %v", err)
	}
	repair("lost replica", 1)
	if _, err := os.Stat(repIx); err != nil {
		t.Fatalf("replica not restored: %v", err)
	}
	verify("lost replica")

	// 2. Lost primary: restored from the replica copy.
	if err := os.Remove(prIx); err != nil {
		t.Fatalf("remove primary: %v", err)
	}
	repair("lost primary", 1)
	if _, err := os.Stat(prIx); err != nil {
		t.Fatalf("primary not restored: %v", err)
	}
	verify("lost primary")

	// 3. Both copies lost: rebuilt from the data file's recovery footer.
	if err := os.Remove(prIx); err != nil {
		t.Fatalf("remove primary: %v", err)
	}
	if err := os.Remove(repIx); err != nil {
		t.Fatalf("remove replica: %v", err)
	}
	if rep := repair("torn dropping", 1); rebuilt(rep) != 1 {
		t.Fatalf("torn dropping not rebuilt from its footer:\n%s", rep)
	}
	if _, err := os.Stat(prIx); err != nil {
		t.Fatalf("primary not rebuilt: %v", err)
	}
	verify("torn dropping")

	if f, r := reg.Counter("plfs.repair.found").Value(), reg.Counter("plfs.repair.repaired").Value(); f != 3 || r != 3 {
		t.Errorf("caller's registry after three repairs: found %d repaired %d, want 3/3", f, r)
	}

	// A daemon tick that re-replicates a lost replica counts it in the
	// service's ledger only, not again in the caller's registry.
	if err := os.Remove(repIx); err != nil {
		t.Fatalf("remove replica: %v", err)
	}
	tctx := serviceCtx(roots, clock)
	tctx.Obs = reg
	if _, err := svc.RepairTick(tctx, m); err != nil {
		t.Fatalf("repair tick: %v", err)
	}
	verify("repair tick")
	c := svc.Obs().Counter
	if got := c("plfs.repair.ticks").Value(); got != 1 {
		t.Errorf("repair ticks = %d, want 1", got)
	}
	if f, r, u := c("plfs.repair.found").Value(), c("plfs.repair.repaired").Value(), c("plfs.repair.unrepairable").Value(); f != 1 || r != 1 || u != 0 {
		t.Errorf("service ledger found/repaired/unrepairable = %d/%d/%d, want 1/1/0", f, r, u)
	}
	if r := reg.Counter("plfs.repair.repaired").Value(); r != 3 {
		t.Errorf("the tick counted into the caller's registry: repaired %d, want 3", r)
	}
}

// TestRepairDaemon runs the virtual-clock daemon loop for a few ticks
// over a container with a missing replica and expects exactly one
// repair across the run (later ticks find nothing).
func TestRepairDaemon(t *testing.T) {
	roots := []string{t.TempDir(), t.TempDir()}
	svc := plfs.NewService(plfs.ServiceOptions{})
	m := svc.Mount(roots, plfs.Options{IndexReplicas: 2})
	clock := &fakeClock{}
	ctx := serviceCtx(roots, clock)
	sleeper := &sumSleeper{}
	ctx.Sleep = sleeper

	w, err := m.Create(ctx, "d")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := w.Write(0, payload.Synthetic(1, 0, 512)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Drop one replica index copy.
	primary := roots[0]
	if _, err := os.Stat(filepath.Join(roots[1], "d", ".plfsaccess")); err == nil {
		primary = roots[1]
	}
	replica := roots[0]
	if primary == roots[0] {
		replica = roots[1]
	}
	repIx := globOne(t, filepath.Join(replica, "d", "hostdir.*", "dropping.index.*"))
	if err := os.Remove(repIx); err != nil {
		t.Fatalf("remove replica: %v", err)
	}

	rep := svc.RepairDaemon(ctx, m, 50*time.Millisecond, 3)
	if rep.Found() != 1 || rep.Repaired() != 1 {
		t.Fatalf("daemon totals, want found=repaired=1:\n%s", rep)
	}
	if slept := sleeper.total; slept != 3*50*time.Millisecond {
		t.Errorf("daemon slept %v, want 150ms of charged virtual time", slept)
	}
	if got := svc.Obs().Counter("plfs.repair.ticks").Value(); got != 3 {
		t.Errorf("ticks = %d, want 3", got)
	}
	if _, err := os.Stat(repIx); err != nil {
		t.Errorf("replica not restored by daemon: %v", err)
	}
}
