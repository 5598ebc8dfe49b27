package plfs_test

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"plfs/internal/fault"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/sim"
	"plfs/internal/simfs"
)

// fastRetry is a retry policy with microsecond backoff so fault tests
// don't sleep for real.
func fastRetry(attempts int) plfs.RetryPolicy {
	return plfs.RetryPolicy{Attempts: attempts, Backoff: 10 * time.Microsecond}
}

// faulty routes a context's volumes through the injector.
func faulty(ctx plfs.Ctx, inj *fault.Injector) plfs.Ctx {
	ctx.Vols = inj.WrapVols(ctx.Vols, ctx.Sleep)
	return ctx
}

func mustSpec(t *testing.T, s string) fault.Spec {
	t.Helper()
	spec, err := fault.ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

// TestRetryAbsorbsTransientFaults is the headline resilience property: a
// 5% transient-error rate on the retried operation classes is fully
// absorbed by the retry policy — the collective N-1 round trip succeeds
// and reads back byte-identical in every aggregation mode.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	const n, blocks, bs = 4, 4, int64(512)
	// One injector across all modes: whether a given 5% roll fires
	// depends on scheduling-sensitive op ordering, so individual modes
	// can legitimately see zero faults — the vacuousness guard sums
	// over every mode's traffic instead.
	inj := fault.New(mustSpec(t, "seed=11,create=0.05,open=0.05,read=0.05,append=0.05"))
	for _, mode := range modes() {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			r := newRig(t, 1, plfs.Options{
				IndexMode: mode, NumSubdirs: 4,
				Retry: fastRetry(6),
			})
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				ctx = faulty(ctx, inj)
				writeN1(t, r.m, ctx, rank, n, blocks, bs, "f")
				rd, err := r.m.OpenReader(ctx, "f")
				if err != nil {
					t.Errorf("rank %d open: %v", rank, err)
					return
				}
				defer rd.Close()
				if rank == 0 {
					verifyN1(t, rd, n, blocks, bs)
				}
			})
		})
	}
	if got := inj.Injected(); len(got) == 0 {
		t.Fatalf("injector fired no faults across any mode; test is vacuous")
	}
}

// TestNoRetryFailsUnderFaults is the control: the same fault rate with
// retries disabled must surface an error somewhere in the round trip.
func TestNoRetryFailsUnderFaults(t *testing.T) {
	inj := fault.New(mustSpec(t, "seed=11,create=0.2,open=0.2,read=0.2,append=0.2"))
	r := newRig(t, 1, plfs.Options{NumSubdirs: 4})
	ctx := faulty(r.ctx(0, nil), inj)

	err := func() error {
		w, err := r.m.Create(ctx, "f")
		if err != nil {
			return err
		}
		for k := 0; k < 32; k++ {
			off := int64(k) * 256
			if err := w.Write(off, payload.Synthetic(1, off, 256)); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		rd, err := r.m.OpenReader(ctx, "f")
		if err != nil {
			return err
		}
		defer rd.Close()
		_, err = rd.ReadAt(0, rd.Size())
		return err
	}()
	if err == nil {
		t.Fatalf("20%% fault rate with no retry completed cleanly")
	}
}

// writeSerial writes blocks sequentially through a serial (no-comm)
// context and closes.
func writeSerial(t *testing.T, r *rig, name string, blocks int, bs int64) {
	t.Helper()
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, name)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for k := 0; k < blocks; k++ {
		off := int64(k) * bs
		if err := w.Write(off, payload.Synthetic(1, off, bs)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// verifySerial re-reads the file through a fresh mount and checks every
// byte of the sequential pattern.
func verifySerial(t *testing.T, r *rig, opt plfs.Options, name string, blocks int, bs int64) {
	t.Helper()
	m2 := plfs.NewMount(r.roots, opt)
	ctx := r.ctx(0, nil)
	rd, err := m2.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rd.Close()
	total := int64(blocks) * bs
	if rd.Size() != total {
		t.Fatalf("size = %d, want %d", rd.Size(), total)
	}
	got, err := rd.ReadAt(0, total)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := payload.Synthetic(1, 0, total)
	if !payload.ContentEqual(got, payload.List{want}) {
		t.Fatalf("contents differ after recovery")
	}
}

// indexFiles globs the on-disk index droppings of a container across the
// rig's volumes.
func indexFiles(t *testing.T, r *rig, name string) []string {
	t.Helper()
	var out []string
	for _, root := range r.roots {
		m, err := filepath.Glob(filepath.Join(root, name, "hostdir.*", "dropping.index.*"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

func dataFiles(t *testing.T, r *rig, name string) []string {
	t.Helper()
	var out []string
	for _, root := range r.roots {
		m, err := filepath.Glob(filepath.Join(root, name, "hostdir.*", "dropping.data.*"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m...)
	}
	return out
}

// TestRecoverMissingIndex deletes an index dropping outright and checks
// Repair (plfs_recover) rebuilds it from the data dropping's footer,
// after which a full read is byte-identical.
func TestRecoverMissingIndex(t *testing.T) {
	const blocks, bs = 8, int64(512)
	r := newRig(t, 1, plfs.Options{})
	writeSerial(t, r, "f", blocks, bs)

	idx := indexFiles(t, r, "f")
	if len(idx) != 1 {
		t.Fatalf("index droppings = %d, want 1", len(idx))
	}
	if err := os.Remove(idx[0]); err != nil {
		t.Fatal(err)
	}

	m2 := plfs.NewMount(r.roots, plfs.Options{})
	rep, err := m2.Repair(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rep.OK() || rebuilt(rep) != 1 {
		t.Fatalf("repair report: %s", rep)
	}
	verifySerial(t, r, plfs.Options{}, "f", blocks, bs)
}

// rebuilt counts the findings a repair fixed by rebuilding an index from
// its recovery footer.
func rebuilt(rep plfs.Report) int {
	n := 0
	for _, p := range rep.Problems {
		if p.Repaired && strings.Contains(p.Detail, "rebuild from recovery footer") {
			n++
		}
	}
	return n
}

// TestRecoverTornIndex truncates an index dropping mid-record (a torn
// metadata write) and checks Repair replaces it from the footer.
func TestRecoverTornIndex(t *testing.T) {
	const blocks, bs = 8, int64(512)
	r := newRig(t, 1, plfs.Options{})
	writeSerial(t, r, "f", blocks, bs)

	idx := indexFiles(t, r, "f")
	if len(idx) != 1 {
		t.Fatalf("index droppings = %d, want 1", len(idx))
	}
	fi, err := os.Stat(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(idx[0], fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	m2 := plfs.NewMount(r.roots, plfs.Options{})
	if _, err := m2.OpenReader(r.ctx(0, nil), "f"); err == nil {
		t.Fatalf("open succeeded on a torn index")
	}
	rep, err := m2.Repair(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rep.OK() || rebuilt(rep) != 1 {
		t.Fatalf("repair report: %s", rep)
	}
	verifySerial(t, r, plfs.Options{}, "f", blocks, bs)
}

// TestRecoverCorruptFraming removes both the index and the data footer;
// the dropping must be reported unrepairable, not silently dropped (and
// the size record then disagrees with the empty index).
func TestRecoverCorruptFraming(t *testing.T) {
	const blocks, bs = 8, int64(512)
	r := newRig(t, 1, plfs.Options{})
	writeSerial(t, r, "f", blocks, bs)

	idx, data := indexFiles(t, r, "f"), dataFiles(t, r, "f")
	if len(idx) != 1 || len(data) != 1 {
		t.Fatalf("droppings = %d/%d, want 1/1", len(idx), len(data))
	}
	if err := os.Remove(idx[0]); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(data[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop the footer (and a byte of data) off the data dropping.
	if err := os.Truncate(data[0], fi.Size()-17); err != nil {
		t.Fatal(err)
	}

	m2 := plfs.NewMount(r.roots, plfs.Options{})
	rep, err := m2.Repair(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	kinds := map[string]int{}
	for _, p := range rep.Problems {
		if !p.Repaired {
			kinds[p.Kind]++
		}
	}
	if rep.OK() || kinds["unreachable"] != 1 || kinds["size-record"] != 1 || rep.Unrepairable() != 2 {
		t.Fatalf("repair report: %s", rep)
	}
}

// TestAllowPartialSkipsUnreadableShards corrupts one writer's index
// shard and opens with AllowPartial: the open succeeds, the shard is
// recorded as skipped, surviving ranks' extents read byte-identical, and
// the lost extents read as zeros.
func TestAllowPartialSkipsUnreadableShards(t *testing.T) {
	const n, blocks, bs = 4, 4, int64(512)
	r := newRig(t, 1, plfs.Options{NumSubdirs: 4})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "f")
	})

	idx := indexFiles(t, r, "f")
	if len(idx) != n {
		t.Fatalf("index droppings = %d, want %d", len(idx), n)
	}
	victim := idx[0]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	// The victim's stamp ends ".<rank>"; its blocks should read as holes.
	parts := strings.Split(victim, ".")
	lostRank := -1
	fmt.Sscanf(parts[len(parts)-1], "%d", &lostRank)
	if lostRank < 0 || lostRank >= n {
		t.Fatalf("cannot parse rank from %s", victim)
	}

	// Without AllowPartial the open must fail.
	mStrict := plfs.NewMount(r.roots, plfs.Options{NumSubdirs: 4})
	if _, err := mStrict.OpenReader(r.ctx(0, nil), "f"); err == nil {
		t.Fatalf("strict open succeeded on a corrupt shard")
	}

	m2 := plfs.NewMount(r.roots, plfs.Options{NumSubdirs: 4, AllowPartial: true})
	rd, err := m2.OpenReader(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatalf("partial open: %v", err)
	}
	defer rd.Close()
	if len(rd.Stats.SkippedShards) != 1 || rd.Stats.SkippedShards[0] == "" {
		t.Fatalf("SkippedShards = %v, want the corrupt shard", rd.Stats.SkippedShards)
	}
	total := int64(n*blocks) * bs
	got, err := rd.ReadAt(0, total)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf := got.Materialize()
	if int64(len(buf)) != total {
		t.Fatalf("read %d bytes, want %d", len(buf), total)
	}
	zeros := make([]byte, bs)
	for k := 0; k < blocks; k++ {
		for i := 0; i < n; i++ {
			off := int64(k*n+i) * bs
			blk := buf[off : off+bs]
			if i == lostRank {
				if !bytes.Equal(blk, zeros) {
					t.Fatalf("lost rank %d block %d not zeroed", i, k)
				}
				continue
			}
			want := payload.Synthetic(uint64(i+1), off, bs).Materialize()
			if !bytes.Equal(blk, want) {
				t.Fatalf("surviving rank %d block %d corrupted", i, k)
			}
		}
	}
}

// TestCloseCollectiveDesync is the regression test for the early-return
// bug: a rank whose flush fails must still reach the collective barrier
// (no hang), report its error, and deregister from openhosts.
func TestCloseCollectiveDesync(t *testing.T) {
	const n, blocks, bs = 4, 4, int64(512)
	inj := fault.New(mustSpec(t, "seed=3,append=1.0"))
	r := newRig(t, 1, plfs.Options{NumSubdirs: 4})

	closeErrs := make([]error, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			if rank == 1 {
				ctx = faulty(ctx, inj)
			}
			w, err := r.m.Create(ctx, "f")
			if err != nil {
				t.Errorf("rank %d create: %v", rank, err)
				return
			}
			for k := 0; k < blocks; k++ {
				off := int64(k*n+rank) * bs
				// Rank 1's writes fail, as injected.  The writer keeps the
				// pieces a failed flush could not land, so they fail again
				// at Close, after every rank has entered the collective.
				if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil && rank != 1 {
					t.Errorf("rank %d write: %v", rank, err)
				}
			}
			closeErrs[rank] = w.Close()
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("collective close hung: a failing rank skipped the barrier")
	}
	for rank, err := range closeErrs {
		if rank == 1 && err == nil {
			t.Errorf("rank 1 close succeeded despite failed appends")
		}
		if rank != 1 && err != nil {
			t.Errorf("rank %d close: %v", rank, err)
		}
	}
	// Every host must have deregistered even on the failing path.
	for _, root := range r.roots {
		hosts, err := filepath.Glob(filepath.Join(root, "f", "openhosts", "host.*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(hosts) != 0 {
			t.Errorf("openhosts not empty after close: %v", hosts)
		}
	}
	// The survivors' bytes stay reachable; rank 1's extents are holes.
	rd, err := plfs.NewMount(r.roots, plfs.Options{NumSubdirs: 4}).OpenReader(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatalf("reopen after partial close: %v", err)
	}
	defer rd.Close()
	if _, err := rd.ReadAt(0, rd.Size()); err != nil {
		t.Fatalf("read after partial close: %v", err)
	}
}

// TestRenameRollback is the regression test for the split-container bug:
// when a later volume's rename fails, the volumes already renamed must
// be renamed back so the container stays whole under its old name.
func TestRenameRollback(t *testing.T) {
	const n, blocks, bs = 8, 2, int64(512)
	r := newRig(t, 2, plfs.Options{NumSubdirs: 2, SpreadSubdirs: true})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "old")
	})
	// The container must span both volumes for the rollback to matter.
	for v, root := range r.roots {
		if _, err := os.Stat(filepath.Join(root, "old")); err != nil {
			t.Fatalf("volume %d has no container piece: %v", v, err)
		}
	}

	inj := fault.New(mustSpec(t, "seed=5,rename=1.0"))
	ctx := r.ctx(0, nil)
	ctx.Vols[1] = inj.Wrap(ctx.Vols[1], 1, nil)
	err := r.m.Rename(ctx, "old", "new")
	if err == nil {
		t.Fatalf("rename succeeded despite injected volume failure")
	}
	if !strings.Contains(err.Error(), "volume 1") {
		t.Errorf("error does not name the failing volume: %v", err)
	}

	// Old name must be fully intact, new name absent.
	clean := r.ctx(0, nil)
	if _, err := r.m.Stat(clean, "new"); !errors.Is(err, iofs.ErrNotExist) {
		t.Errorf("new name exists after failed rename: %v", err)
	}
	rd, err := r.m.OpenReader(clean, "old")
	if err != nil {
		t.Fatalf("old name unreadable after rollback: %v", err)
	}
	defer rd.Close()
	verifyN1(t, rd, n, blocks, bs)
}

// TestTruncateRewriteSmaller is the regression test for the stale size
// record bug: after O_TRUNC and a smaller rewrite, Stat must report the
// new size even though a larger pre-truncate record once existed — and
// even if such a record leaks back into the metadir.
func TestTruncateRewriteSmaller(t *testing.T) {
	const bs = int64(512)
	r := newRig(t, 1, plfs.Options{})
	writeSerial(t, r, "f", 8, bs)
	ctx := r.ctx(0, nil)
	if fi, err := r.m.Stat(ctx, "f"); err != nil || fi.Size != 8*bs {
		t.Fatalf("pre-truncate stat = %+v, %v; want size %d", fi, err, 8*bs)
	}

	if err := r.m.Truncate(ctx, "f"); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	writeSerial(t, r, "f", 2, bs)
	if fi, err := r.m.Stat(ctx, "f"); err != nil || fi.Size != 2*bs {
		t.Fatalf("post-rewrite stat = %+v, %v; want size %d", fi, err, 2*bs)
	}

	// A stale generation-0 record sneaking back in must not win.
	stale := filepath.Join(r.roots[0], "f", "meta", "sz.999999.0")
	if err := os.WriteFile(stale, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := plfs.NewMount(r.roots, plfs.Options{})
	if fi, err := m2.Stat(r.ctx(0, nil), "f"); err != nil || fi.Size != 2*bs {
		t.Fatalf("stat with stale record = %+v, %v; want size %d", fi, err, 2*bs)
	}
}

// TestLostPathReadsAsNotExist exercises the injector's permanent-loss
// class: with the index dropping "lost" (every access fails ErrNotExist),
// AllowPartial still serves the remaining shards.
func TestLostPathReadsAsNotExist(t *testing.T) {
	r := newRig(t, 1, plfs.Options{})
	writeSerial(t, r, "f", 4, 512)

	inj := fault.New(fault.Spec{Seed: 9, Lose: []string{"dropping.index"}})
	ctx := faulty(r.ctx(0, nil), inj)
	m2 := plfs.NewMount(r.roots, plfs.Options{AllowPartial: true})
	rd, err := m2.OpenReader(ctx, "f")
	if err != nil {
		t.Fatalf("partial open with lost index: %v", err)
	}
	defer rd.Close()
	if len(rd.Stats.SkippedShards) != 1 {
		t.Fatalf("SkippedShards = %v, want 1 entry", rd.Stats.SkippedShards)
	}
}

// namespaceRoundTrip writes a small container through clean, then drives
// every namespace entry point of m through faulty, rounds times over
// fresh names, and checks each result: Mkdir, Stat, ReadDir, Rename,
// Truncate and Unlink must all absorb the transient faults their backend
// calls hit.  It may run on a simulated process's goroutine, so it
// reports with t.Errorf and returns rather than calling t.Fatal.
func namespaceRoundTrip(t *testing.T, m *plfs.Mount, clean, faulty plfs.Ctx, rounds int) {
	t.Helper()
	const blocks, bs = 4, int64(256)
	for i := 0; i < rounds; i++ {
		f, g, dir := fmt.Sprint("f", i), fmt.Sprint("g", i), fmt.Sprint("dir", i)
		w, err := m.Create(clean, f)
		if err != nil {
			t.Errorf("create %s: %v", f, err)
			return
		}
		for k := int64(0); k < blocks; k++ {
			err = errors.Join(err, w.Write(k*bs, payload.Synthetic(1, k*bs, bs)))
		}
		if err = errors.Join(err, w.Close()); err != nil {
			t.Errorf("write %s: %v", f, err)
			return
		}
		if err := m.Mkdir(faulty, dir); err != nil {
			t.Errorf("Mkdir %s: %v", dir, err)
		}
		if fi, err := m.Stat(faulty, f); err != nil || fi.Size != blocks*bs {
			t.Errorf("Stat %s: %+v, %v; want size %d", f, fi, err, blocks*bs)
		}
		ents, err := m.ReadDir(faulty, "")
		if err != nil {
			t.Errorf("ReadDir: %v", err)
		}
		seen := map[string]bool{}
		for _, e := range ents {
			seen[e.Name] = e.Dir
		}
		if isDir, ok := seen[dir]; !ok || !isDir {
			t.Errorf("ReadDir: %+v lacks directory %s", ents, dir)
		}
		if isDir, ok := seen[f]; !ok || isDir {
			t.Errorf("ReadDir: %+v lacks logical file %s", ents, f)
		}
		if err := m.Rename(faulty, f, g); err != nil {
			t.Errorf("Rename %s: %v", f, err)
		}
		if err := m.Truncate(faulty, g); err != nil {
			t.Errorf("Truncate %s: %v", g, err)
		}
		if fi, err := m.Stat(faulty, g); err != nil || fi.Size != 0 {
			t.Errorf("Stat %s after truncate: %+v, %v; want size 0", g, fi, err)
		}
		if err := m.Unlink(faulty, g); err != nil {
			t.Errorf("Unlink %s: %v", g, err)
		}
		if ok, err := m.IsContainer(clean, g); ok || err != nil {
			t.Errorf("after Unlink %s: IsContainer = %v, %v", g, ok, err)
		}
	}
}

// namespaceFaults is a high transient rate on every namespace op class.
// A call that is not retried fails almost at once; one retried 8 times
// fails with probability 0.15^8.  Over osfs, where the temp-dir paths
// reseed the schedule on every run, the ~3,500 faultable calls of the
// osfs subtest then fail about one run in 1,000.
const namespaceFaults = "seed=7,stat=0.15,mkdir=0.15,readdir=0.15,rename=0.15,remove=0.15"

// requireFired fails the test unless the injector fired on every
// namespace op class, so a pass is not vacuous.
func requireFired(t *testing.T, inj *fault.Injector) {
	t.Helper()
	got := inj.Injected()
	for _, op := range []fault.Op{fault.OpStat, fault.OpMkdir, fault.OpReadDir, fault.OpRename, fault.OpRemove} {
		if got[op] == 0 {
			t.Errorf("no %s fault fired: %v", op, got)
		}
	}
}

// TestNamespaceCallsAbsorbFaults: with a retry policy set, every backend
// call a namespace entry point makes is retried, over osfs (real sleeps)
// and over the simulated stack (virtual sleeps).  The torn-append side
// of the commit protocol — a torn temp is rebuilt from a fresh temp, not
// reissued in place — is TestGlobalIndexTornAppendRetries.
func TestNamespaceCallsAbsorbFaults(t *testing.T) {
	const rounds = 32
	opt := plfs.Options{NumSubdirs: 4, SpreadSubdirs: true}
	t.Run("osfs", func(t *testing.T) {
		opt.Retry = fastRetry(8)
		r := newRig(t, 4, opt)
		inj := fault.New(mustSpec(t, namespaceFaults))
		clean := serialCtx(r, 0)
		namespaceRoundTrip(t, r.m, clean, faulty(clean, inj), rounds)
		requireFired(t, inj)
	})
	t.Run("simfs", func(t *testing.T) {
		eng := sim.NewEngine(1)
		fs := pfs.New(eng, pfs.SmallCluster())
		roots := make([]string, fs.Volumes())
		for i := range roots {
			roots[i] = fs.VolumeRoot(i)
		}
		opt.Retry = plfs.RetryPolicy{Attempts: 8}
		m := plfs.NewMount(roots, opt)
		inj := fault.New(mustSpec(t, namespaceFaults))
		eng.Spawn("rank0", func(p *sim.Proc) {
			clean := simfs.Ctx(fs, 0, p, 0, 1)
			namespaceRoundTrip(t, m, clean, simfs.FaultCtx(fs, 0, p, 0, 1, inj), rounds)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		requireFired(t, inj)
	})
}
