package plfs_test

// Crash-torture harness: run an N-writer workload with the backend
// crashed after its k-th mutating operation — for every k — then
// Repair, Scrub, and read the container back.  The invariant at every
// crash boundary is that the file is either absent, a consistent prior
// state (each block fully written or fully absent, no torn or silently
// corrupt bytes served), or fully recovered.  This enumerates every
// commit boundary of the container protocol, so any non-atomic publish
// shows up as a specific k that fails.

import (
	"fmt"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// crashOpts is the container configuration the torture runs under:
// checksummed framing on, so recovery and scrub exercise the full
// integrity machinery.
func crashOpts(mode plfs.Mode) plfs.Options {
	return plfs.Options{IndexMode: mode, NumSubdirs: 2, Checksum: true, Retry: fastRetry(2)}
}

// serialCtx builds a context for sequential single-writer sessions:
// every rank is its own host leader so container creation does not
// depend on a communicator.
func serialCtx(r *rig, rank int) plfs.Ctx {
	ctx := r.ctx(rank, nil)
	ctx.Host = rank
	ctx.HostLeader = true
	return ctx
}

// runSerialCrashWorkload drives n sequential writer sessions against one
// shared file through the injector, ignoring I/O errors: after the crash
// point every operation fails, which is exactly the torn state the
// verifier must then judge.
func runSerialCrashWorkload(r *rig, inj *fault.Injector, name string, n, blocks int, bs int64) {
	for i := 0; i < n; i++ {
		ctx := faulty(serialCtx(r, i), inj)
		w, err := r.m.Create(ctx, name)
		if err != nil {
			return // crashed: every later session fails at Create too
		}
		for k := 0; k < blocks; k++ {
			off := int64(k*n+i) * bs
			_ = w.Write(off, payload.Synthetic(uint64(i+1), off, bs))
		}
		_ = w.Close()
	}
}

// verifyCrashState is the torture invariant: after a crash at any
// operation boundary, Repair must succeed, Scrub must report nothing
// beyond the expected residue of a crash (unreachable droppings awaiting
// nothing, stale openhosts records, torn append tails, a size record
// behind the index), and every block must read back either fully
// written or fully absent.
func verifyCrashState(t *testing.T, r *rig, name string, n, blocks int, bs int64) {
	t.Helper()
	ctx := serialCtx(r, 0)
	ok, err := r.m.IsContainer(ctx, name)
	if err != nil {
		t.Fatalf("IsContainer: %v", err)
	}
	if !ok {
		return // crashed before the container was born: absent is consistent
	}
	if _, err := r.m.Repair(ctx, name); err != nil {
		t.Fatalf("repair after crash: %v", err)
	}
	srep, err := r.m.Scrub(ctx, name)
	if err != nil {
		t.Fatalf("scrub after recover: %v", err)
	}
	allowed := map[string]bool{
		// A dropping whose session crashed before any index or footer
		// committed is unreachable: its bytes are invisible, not torn.
		"unreachable": true,
		// Crashed writers never deregister from openhosts.
		"stale-openhost": true,
		// Data beyond indexed coverage is a torn append tail: invisible.
		"torn-tail": true,
		// A writer that crashed between its index commit and its size
		// record leaves Stat's cached size behind what readers see.
		"size-record": true,
	}
	for _, p := range srep.Problems {
		if !allowed[p.Kind] {
			t.Errorf("scrub after recover: %s", p)
		}
	}
	rd, err := r.m.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open after recover: %v", err)
	}
	defer rd.Close()
	total := int64(n*blocks) * bs
	sz := rd.Size()
	if sz > total {
		t.Fatalf("logical size %d exceeds written %d", sz, total)
	}
	if sz%bs != 0 {
		t.Fatalf("logical size %d is not a block boundary (torn commit visible)", sz)
	}
	if sz == 0 {
		return
	}
	got, err := rd.ReadAt(0, sz)
	if err != nil {
		t.Fatalf("read after recover: %v", err)
	}
	zeros := payload.List{payload.Zeros(bs)}
	for k := 0; k < blocks; k++ {
		for i := 0; i < n; i++ {
			off := int64(k*n+i) * bs
			if off >= sz {
				continue // beyond logical size: absent, consistent
			}
			b := got.Slice(off, bs)
			want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
			if !payload.ContentEqual(b, want) && !payload.ContentEqual(b, zeros) {
				t.Errorf("block (k=%d, rank=%d) is neither fully written nor absent", k, i)
			}
		}
	}
}

// crashStride compresses the sweep in -short mode (CI) while still
// sampling crash points across the whole protocol.
func crashStride(total int64) int64 {
	if testing.Short() {
		return total/16 + 1
	}
	return 1
}

// TestCrashTortureSerial sweeps every mutating-operation boundary of
// sequential single-writer sessions (the FUSE-style path, Original
// index mode).
func TestCrashTortureSerial(t *testing.T) {
	const n, blocks, bs = 3, 3, int64(512)
	const name = "tortured"

	// Counting run: a fault-free injector tallies the mutating ops, which
	// bounds the crash sweep.
	count := fault.New(fault.Spec{})
	r := newRig(t, 1, crashOpts(plfs.Original))
	runSerialCrashWorkload(r, count, name, n, blocks, bs)
	verifyCrashState(t, r, name, n, blocks, bs) // fault-free run must be fully intact
	total := count.MutatingOps()
	if total < 10 {
		t.Fatalf("suspiciously few mutating ops: %d", total)
	}

	for k := int64(1); k <= total; k += crashStride(total) {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			inj := fault.New(mustSpec(t, fmt.Sprintf("crashat=%d", k)))
			r := newRig(t, 1, crashOpts(plfs.Original))
			runSerialCrashWorkload(r, inj, name, n, blocks, bs)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never fired (sweep is vacuous)", k)
			}
			verifyCrashState(t, r, name, n, blocks, bs)
		})
	}
}

// TestCrashTortureCollective sweeps crash points through the write and
// collective-close phases of a concurrent N-writer job under Index
// Flatten.  Crash points inside the create phase are excluded: a rank
// whose Create fails never joins the close collectives, and its peers
// would block forever — the documented deadlock a real MPI job hits when
// a process dies, not a container-consistency bug.
func TestCrashTortureCollective(t *testing.T) {
	const n, blocks, bs = 4, 2, int64(512)
	const name = "tortured-collective"

	run := func(r *rig, inj *fault.Injector, afterCreate *int64) {
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			ctx = faulty(ctx, inj)
			w, err := r.m.Create(ctx, name)
			if err != nil {
				t.Errorf("rank %d create: %v", rank, err)
				return
			}
			// The barrier pins the create/write phase boundary: crash
			// points above afterCreate can then never land inside a
			// Create, in the counting run or the sweep.
			ctx.Comm.Barrier()
			if afterCreate != nil && rank == 0 {
				*afterCreate = inj.MutatingOps()
			}
			ctx.Comm.Barrier()
			for k := 0; k < blocks; k++ {
				off := int64(k*n+rank) * bs
				_ = w.Write(off, payload.Synthetic(uint64(rank+1), off, bs))
			}
			_ = w.Close() // every rank reaches the close collectives
		})
	}

	// Counting run: total ops, and the op count at the create/write
	// boundary (deterministic because a barrier separates the phases).
	var afterCreate int64
	count := fault.New(fault.Spec{})
	r := newRig(t, 1, crashOpts(plfs.IndexFlatten))
	run(r, count, &afterCreate)
	verifyCrashState(t, r, name, n, blocks, bs)
	total := count.MutatingOps()
	if afterCreate <= 0 || afterCreate >= total {
		t.Fatalf("bad phase boundary: afterCreate=%d total=%d", afterCreate, total)
	}

	for k := afterCreate + 1; k <= total; k += crashStride(total - afterCreate) {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			inj := fault.New(mustSpec(t, fmt.Sprintf("crashat=%d", k)))
			r := newRig(t, 1, crashOpts(plfs.IndexFlatten))
			run(r, inj, nil)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never fired (sweep is vacuous)", k)
			}
			verifyCrashState(t, r, name, n, blocks, bs)
		})
	}
}
