package plfs_test

// Tests for the batched collective create (Options.BulkCreate) and the
// rebalance migration protocol, including the crash-torture sweep over
// every migration-op boundary (ISSUE 10 satellite: every k must leave
// the container openable and byte-identical after Repair).

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestBatchedCreateRoundtrip drives the bulk-create collective open over
// the POSIX rig (osfs advertises BulkCreator) and verifies the written
// data reads back exactly as under the classic per-rank path.
func TestBatchedCreateRoundtrip(t *testing.T) {
	const n, blocks, bs = 8, 3, int64(1024)
	r := newRig(t, 2, plfs.Options{
		NumSubdirs: 2, SpreadContainers: true, SpreadSubdirs: true, BulkCreate: true,
	})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "batched")
	})
	ctx := serialCtx(r, 0)
	rd, err := r.m.OpenReader(ctx, "batched")
	if err != nil {
		t.Fatalf("open after batched create: %v", err)
	}
	defer rd.Close()
	verifyN1(t, rd, n, blocks, bs)
	srep, err := r.m.Scrub(ctx, "batched")
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !srep.OK() {
		t.Errorf("scrub after batched create:\n%s", srep)
	}
}

// TestBatchedCreateFollowsMigration is the composition claim: after a
// hostdir migrates, batched writers resolve the forwarding marker and
// place new droppings at the destination — the hash location is never
// recreated by the batched path.
func TestBatchedCreateFollowsMigration(t *testing.T) {
	const n, blocks, bs = 4, 2, int64(512)
	const name = "followme"
	r := newRig(t, 2, plfs.Options{NumSubdirs: 2, BulkCreate: true})
	// Round 1: all four ranks share host 0, so everything lands in
	// hostdir.0 on the canonical volume 0.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, name)
	})
	ctx := serialCtx(r, 0)
	if err := r.m.MigrateHostdir(ctx, name, 0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// Round 2: another batched session extends the same container.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		w, err := r.m.Create(ctx, name)
		if err != nil {
			t.Errorf("rank %d reopen: %v", rank, err)
			return
		}
		off := int64(n*blocks)*bs + int64(rank)*bs
		if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
			t.Errorf("rank %d write: %v", rank, err)
		}
		if err := w.Close(); err != nil {
			t.Errorf("rank %d close: %v", rank, err)
		}
	})
	// The hash location must not have been recreated; the moved location
	// must hold both rounds' droppings.
	if _, err := os.Stat(filepath.Join(r.roots[0], name, "hostdir.0")); !os.IsNotExist(err) {
		t.Errorf("hash-located hostdir recreated after migration (err=%v)", err)
	}
	ents, err := os.ReadDir(filepath.Join(r.roots[1], name, "hostdir.0"))
	if err != nil || len(ents) < 2*n {
		t.Errorf("moved hostdir has %d entries, err %v (want >= %d)", len(ents), err, 2*n)
	}
	rd, err := r.m.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open after round 2: %v", err)
	}
	defer rd.Close()
	if want := int64(n*blocks)*bs + int64(n)*bs; rd.Size() != want {
		t.Errorf("size %d, want %d", rd.Size(), want)
	}
	for rank := 0; rank < n; rank++ {
		off := int64(n*blocks)*bs + int64(rank)*bs
		got, err := rd.ReadAt(off, bs)
		if err != nil {
			t.Fatalf("read round-2 block: %v", err)
		}
		if !payload.ContentEqual(got, payload.List{payload.Synthetic(uint64(rank+1), off, bs)}) {
			t.Errorf("round-2 block of rank %d corrupt after migration", rank)
		}
	}
}

// buildQuiescent writes a small N-1 container with serial sessions and
// returns its total byte size.
func buildQuiescent(t testing.TB, r *rig, name string, n, blocks int, bs int64) int64 {
	for i := 0; i < n; i++ {
		ctx := serialCtx(r, i)
		w, err := r.m.Create(ctx, name)
		if err != nil {
			t.Fatalf("writer %d create: %v", i, err)
		}
		for k := 0; k < blocks; k++ {
			off := int64(k*n+i) * bs
			if err := w.Write(off, payload.Synthetic(uint64(i+1), off, bs)); err != nil {
				t.Fatalf("writer %d write: %v", i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("writer %d close: %v", i, err)
		}
	}
	return int64(n*blocks) * bs
}

// verifyIntact fails unless the container reads back byte-identical to
// the build pattern and Scrub reports at worst the allowed residue.
func verifyIntact(t *testing.T, r *rig, name string, n, blocks int, bs int64, allowed map[string]bool) {
	t.Helper()
	ctx := serialCtx(r, 0)
	if _, err := r.m.Repair(ctx, name); err != nil {
		t.Fatalf("repair: %v", err)
	}
	srep, err := r.m.Scrub(ctx, name)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	for _, p := range srep.Problems {
		if !allowed[p.Kind] {
			t.Errorf("scrub: %s", p)
		}
	}
	rd, err := r.m.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	total := int64(n*blocks) * bs
	if rd.Size() != total {
		t.Fatalf("size %d, want %d", rd.Size(), total)
	}
	got, err := rd.ReadAt(0, total)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for k := 0; k < blocks; k++ {
		for i := 0; i < n; i++ {
			off := int64(k*n+i) * bs
			want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
			if !payload.ContentEqual(got.Slice(off, bs), want) {
				t.Errorf("block (k=%d, rank=%d) corrupt", k, i)
			}
		}
	}
}

// TestMigrateHostdir covers the happy path: move, verify, move again
// (idempotent no-op), move back.
func TestMigrateHostdir(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(512)
	const name = "mig"
	r := newRig(t, 3, plfs.Options{NumSubdirs: 2, Checksum: true})
	buildQuiescent(t, r, name, n, blocks, bs)
	ctx := serialCtx(r, 0)

	if err := r.m.MigrateHostdir(ctx, name, 0, 2); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	verifyIntact(t, r, name, n, blocks, bs, nil)
	if _, err := os.Stat(filepath.Join(r.roots[0], name, "hostdir.0")); !os.IsNotExist(err) {
		t.Errorf("source hostdir survived the move (err=%v)", err)
	}

	// Same destination again: a no-op, not an error.
	if err := r.m.MigrateHostdir(ctx, name, 0, 2); err != nil {
		t.Fatalf("re-migrate: %v", err)
	}
	verifyIntact(t, r, name, n, blocks, bs, nil)

	// And home again (back to the hash volume).
	if err := r.m.MigrateHostdir(ctx, name, 0, 0); err != nil {
		t.Fatalf("migrate home: %v", err)
	}
	verifyIntact(t, r, name, n, blocks, bs, nil)

	// Unlink must clean moved locations and markers completely.
	if err := r.m.MigrateHostdir(ctx, name, 1, 1); err != nil {
		t.Fatalf("migrate for unlink: %v", err)
	}
	if err := r.m.Unlink(ctx, name); err != nil {
		t.Fatalf("unlink with moved hostdir: %v", err)
	}
	for v, root := range r.roots {
		if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
			t.Errorf("vol %d: container residue after unlink (err=%v)", v, err)
		}
	}
}

// TestMigrateRefusesActiveWriters: quiescence is a hard precondition.
func TestMigrateRefusesActiveWriters(t *testing.T) {
	const name = "busy"
	r := newRig(t, 2, plfs.Options{NumSubdirs: 2})
	ctx := serialCtx(r, 0)
	w, err := r.m.Create(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.MigrateHostdir(ctx, name, 0, 1); err == nil {
		t.Error("migration proceeded under an active writer")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.MigrateHostdir(ctx, name, 0, 1); err != nil {
		t.Errorf("migration after close: %v", err)
	}
}

// TestRebalancePass drives the greedy policy: all hostdirs start on the
// canonical volume, loads say it is hot, and a pass spreads them to the
// cold volumes (deterministically) without disturbing the data.
func TestRebalancePass(t *testing.T) {
	const n, blocks, bs = 4, 2, int64(512)
	const name = "skewed"
	r := newRig(t, 4, plfs.Options{NumSubdirs: 4})
	buildQuiescent(t, r, name, n, blocks, bs)
	ctx := serialCtx(r, 0)

	loads := []float64{9, 1, 1, 1} // volume 0 is hot
	load := func(v int) float64 { return loads[v] }
	rep, err := r.m.Rebalance(ctx, name, load)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Skew < 1.5 {
		t.Fatalf("skew %.2f, want the injected 9x", rep.Skew)
	}
	if len(rep.Moves) == 0 {
		t.Fatal("no moves despite 9x skew")
	}
	for _, mv := range rep.Moves {
		if mv.From != 0 {
			t.Errorf("moved hostdir.%d from volume %d, want 0", mv.Subdir, mv.From)
		}
	}
	verifyIntact(t, r, name, n, blocks, bs, nil)

	// Determinism: the same inputs replay to the same plan.
	r2 := newRig(t, 4, plfs.Options{NumSubdirs: 4})
	buildQuiescent(t, r2, name, n, blocks, bs)
	rep2, err := r2.m.Rebalance(serialCtx(r2, 0), name, load)
	if err != nil {
		t.Fatalf("rebalance replay: %v", err)
	}
	if fmt.Sprint(rep2.Moves) != fmt.Sprint(rep.Moves) {
		t.Errorf("replay diverged: %v vs %v", rep2.Moves, rep.Moves)
	}

	// Balanced loads: a pass is a no-op.
	loads = []float64{2, 2, 2, 2}
	rep3, err := r.m.Rebalance(ctx, name, load)
	if err != nil {
		t.Fatalf("balanced rebalance: %v", err)
	}
	if len(rep3.Moves) != 0 {
		t.Errorf("moves under balanced load: %v", rep3.Moves)
	}
}

// TestRebalanceMovesEachHostdirOnce: a pass sends a hostdir only to a
// volume below its fair share and takes hostdirs only from volumes above
// it, so no hostdir moves twice in one pass and a pass makes at most one
// move per hostdir.  Each rotation of a skewed load vector runs one pass
// over a fresh 8-hostdir container whose hostdirs all start on one
// volume: that volume is the hottest, the second hottest (a hotter empty
// volume goes first), or cold, and the second-hottest volume is also a
// destination.
func TestRebalanceMovesEachHostdirOnce(t *testing.T) {
	const n, blocks, bs = 8, 1, int64(512)
	const name = "skewed"
	skew := []float64{9, 5, 1, 0.5}
	total := 0
	for rot := range skew {
		r := newRig(t, len(skew), plfs.Options{NumSubdirs: n})
		buildQuiescent(t, r, name, n, blocks, bs)
		load := func(v int) float64 { return skew[(v+rot)%len(skew)] }
		rep, err := r.m.Rebalance(serialCtx(r, 0), name, load)
		if err != nil {
			t.Fatalf("rotation %d: rebalance: %v", rot, err)
		}
		seen := map[int]bool{}
		for _, mv := range rep.Moves {
			if seen[mv.Subdir] {
				t.Errorf("rotation %d: hostdir.%d moved twice in one pass: %v", rot, mv.Subdir, rep.Moves)
			}
			seen[mv.Subdir] = true
		}
		if len(rep.Moves) > n {
			t.Errorf("rotation %d: %d moves for %d hostdirs", rot, len(rep.Moves), n)
		}
		total += len(rep.Moves)
		verifyIntact(t, r, name, n, blocks, bs, nil)
	}
	if total == 0 {
		t.Fatal("no moves despite 9x skew")
	}
}

// TestCrashTortureMigration sweeps a crash through every mutating-op
// boundary of a hostdir migration.  At every k the container must stay
// openable, Repair must succeed, and the data must read back
// byte-identical — the migration never holds the only copy of anything.
// A fault-free re-run of the same migration must then converge.
func TestCrashTortureMigration(t *testing.T) {
	const n, blocks, bs = 3, 2, int64(512)
	const name = "migtorture"
	opts := plfs.Options{NumSubdirs: 2, Checksum: true, Retry: fastRetry(2)}
	// The crash sweep's verifier tolerates the residue a crashed
	// migration legitimately leaves: orphaned atomic-copy temps (swept by
	// Scrub) in either location.
	allowed := map[string]bool{"orphan-tmp": true}

	// Counting run bounds the sweep.
	count := fault.New(fault.Spec{})
	r := newRig(t, 3, opts)
	buildQuiescent(t, r, name, n, blocks, bs)
	if err := r.m.MigrateHostdir(faulty(serialCtx(r, 0), count), name, 0, 2); err != nil {
		t.Fatalf("fault-free migration: %v", err)
	}
	verifyIntact(t, r, name, n, blocks, bs, nil)
	total := count.MutatingOps()
	if total < 5 {
		t.Fatalf("suspiciously few migration ops: %d", total)
	}

	for k := int64(1); k <= total; k += crashStride(total) {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			inj := fault.New(mustSpec(t, fmt.Sprintf("crashat=%d", k)))
			r := newRig(t, 3, opts)
			buildQuiescent(t, r, name, n, blocks, bs)
			err := r.m.MigrateHostdir(faulty(serialCtx(r, 0), inj), name, 0, 2)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never fired (err=%v; sweep is vacuous)", k, err)
			}
			// Invariant 1: the interrupted state is fully readable.
			verifyIntact(t, r, name, n, blocks, bs, allowed)
			// Invariant 2: re-running the migration converges.
			if err := r.m.MigrateHostdir(serialCtx(r, 0), name, 0, 2); err != nil {
				t.Fatalf("resumed migration: %v", err)
			}
			verifyIntact(t, r, name, n, blocks, bs, nil)
		})
	}
}
