package plfs_test

// The crash-torture invariants, re-proven without rename atomicity: over
// the object-store backend every atomic commit is a conditional PUT, so
// the sweep below enumerates every mutating-operation boundary of the
// conditional-PUT protocol (OpPut included) and asserts the same
// Recover+Scrub+read-back invariants the POSIX rename protocol is held
// to in crash_test.go.  A second set of tests covers the losing side of
// a conditional PUT: transient PUT failures and generation conflicts
// must be absorbed by the commit retry loop, never surfacing as torn or
// duplicated container state.

import (
	"fmt"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/objfs"
	"plfs/internal/plfs"
)

// newObjRig is newRig over one shared engineless object store: every
// context's volumes are objfs backends onto the same flat keyspace, the
// crash-test analogue of volumes on one physical store.
func newObjRig(t testing.TB, volumes int, opt plfs.Options) (*rig, *objfs.Store) {
	t.Helper()
	s := objfs.New(objfs.DefaultConfig())
	roots := s.Roots(volumes)
	r := &rig{
		m:     plfs.NewMount(roots, opt),
		roots: roots,
		clock: &fakeClock{},
		newVols: func() []plfs.Backend {
			vols := make([]plfs.Backend, volumes)
			for i := range vols {
				vols[i] = objfs.Vol(s)
			}
			return vols
		},
	}
	return r, s
}

// TestObjfsN1WriteRead is the basic end-to-end check: a concurrent N-1
// workload through the full container protocol lands on the object
// store and reads back byte-identical, in both the eager and deferred
// index modes.
func TestObjfsN1WriteRead(t *testing.T) {
	for _, mode := range []plfs.Mode{plfs.Original, plfs.IndexFlatten} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			const n, blocks, bs = 4, 3, int64(512)
			r, s := newObjRig(t, 2, crashOpts(mode))
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				writeN1(t, r.m, ctx, rank, n, blocks, bs, "shared")
			})
			rd, err := r.m.OpenReader(serialCtx(r, 0), "shared")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			verifyN1(t, rd, n, blocks, bs)
			st := s.Stats()
			if st.CondPuts == 0 {
				t.Fatal("no conditional PUTs issued: commits took the rename path")
			}
			if st.Puts == 0 || st.Objects == 0 {
				t.Fatalf("implausible store stats: %+v", st)
			}
		})
	}
}

// TestObjfsBulkCreateBehindWrappers: the object store has no bulk-create
// RPC, and nothing interposed on it may pretend otherwise.  A collective
// create with BulkCreate set must fall back to per-rank creates whether
// the volumes are bare, behind a zero-probability fault injector, or
// behind the injector and the health tracker — the regression was the
// wrappers advertising BulkCreator themselves and the batch dying with
// "unsupported operation".
func TestObjfsBulkCreateBehindWrappers(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(512)
	for _, tc := range []struct {
		name         string
		fault, heals bool
	}{{"bare", false, false}, {"fault", true, false}, {"fault+health", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := crashOpts(plfs.Original)
			opt.BulkCreate, opt.HedgedReads = true, tc.heals
			r, _ := newObjRig(t, 2, opt)
			inj := fault.New(fault.Spec{})
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				if tc.fault {
					ctx = faulty(ctx, inj)
				}
				writeN1(t, r.m, ctx, rank, n, blocks, bs, "bulk")
			})
			rd, err := r.m.OpenReader(serialCtx(r, 0), "bulk")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer rd.Close()
			verifyN1(t, rd, n, blocks, bs)
		})
	}
}

// TestObjfsCrashTortureSerial is TestCrashTortureSerial over the object
// store: crash the backend at every K-th mutating operation (conditional
// PUTs count), reopen the frozen keyspace, and hold recovery to the
// block-atomicity invariant.  No rename exists to be atomic here; the
// sweep passing proves conditional PUT alone carries the commit
// protocol.
func TestObjfsCrashTortureSerial(t *testing.T) {
	const n, blocks, bs = 3, 3, int64(512)
	const name = "tortured-obj"

	count := fault.New(fault.Spec{})
	r, _ := newObjRig(t, 1, crashOpts(plfs.Original))
	runSerialCrashWorkload(r, count, name, n, blocks, bs)
	verifyCrashState(t, r, name, n, blocks, bs)
	total := count.MutatingOps()
	if total < 10 {
		t.Fatalf("suspiciously few mutating ops: %d", total)
	}

	for k := int64(1); k <= total; k += crashStride(total) {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			inj := fault.New(mustSpec(t, fmt.Sprintf("crashat=%d", k)))
			r, _ := newObjRig(t, 1, crashOpts(plfs.Original))
			runSerialCrashWorkload(r, inj, name, n, blocks, bs)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never fired (sweep is vacuous)", k)
			}
			verifyCrashState(t, r, name, n, blocks, bs)
		})
	}
}

// TestObjfsLosingWriterRetries injects a 25% transient failure rate on
// conditional PUTs: every commit in the container protocol loses a few
// rounds and must retry cleanly — the workload still completes and reads
// back byte-identical, and the injector confirms PUT faults actually
// fired (the sweep is not vacuous).
func TestObjfsLosingWriterRetries(t *testing.T) {
	const n, blocks, bs = 3, 3, int64(512)
	opt := crashOpts(plfs.IndexFlatten)
	opt.Retry = fastRetry(10)
	r, _ := newObjRig(t, 2, opt)
	inj := fault.New(mustSpec(t, "seed=11,put=0.25"))
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		ctx = faulty(ctx, inj)
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "contested")
	})
	if inj.Injected()[fault.OpPut] == 0 {
		t.Fatal("no conditional-PUT faults fired: the retry claim is untested")
	}
	rd, err := r.m.OpenReader(serialCtx(r, 0), "contested")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	verifyN1(t, rd, n, blocks, bs)
}

// TestConflictErrorClassification pins the retry classification the
// conditional-PUT protocol depends on: a generation conflict is
// transient (the losing writer re-reads and reissues), while the
// namespace verdicts stay permanent.
func TestConflictErrorClassification(t *testing.T) {
	if !plfs.Retryable(&objfs.ConflictError{Key: "k", Want: 1, Have: 2}) {
		t.Fatal("ConflictError must classify as retryable")
	}
	if plfs.Retryable(objfs.ErrExist) || plfs.Retryable(objfs.ErrNotExist) {
		t.Fatal("objfs namespace verdicts must classify as permanent")
	}
}
