package plfs_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestFlattenExistingContainer: the plfs_flatten_index path — flatten a
// container written without IndexFlatten, then verify readers use the
// global index and the bytes are unchanged.
func TestFlattenExistingContainer(t *testing.T) {
	const n, blocks, bs = 6, 4, int64(256)
	r := newRig(t, 2, plfs.Options{
		IndexMode: plfs.Original, NumSubdirs: 3,
		SpreadContainers: true, SpreadSubdirs: true,
	})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "wr1rm")
	})
	ctx := r.ctx(0, nil)
	if err := r.m.Flatten(ctx, "wr1rm"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := r.m.Flatten(ctx, "wr1rm"); err != nil {
		t.Fatal(err)
	}
	// The global index file exists in the canonical container's metadir.
	found := false
	for _, root := range r.roots {
		if _, err := os.Stat(filepath.Join(root, "wr1rm", "meta", "global.index")); err == nil {
			found = true
		}
	}
	if !found {
		t.Fatal("no global index written")
	}
	// Serial reader must report serving from the flattened index...
	rd, err := r.m.OpenReader(ctx, "wr1rm")
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Stats.UsedGlobal {
		t.Fatal("reader ignored the flattened index")
	}
	verifyN1(t, rd, n, blocks, bs)
	rd.Close()
	// ...and so must collective readers in any mode.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		rd, err := r.m.OpenReader(ctx, "wr1rm")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if !rd.Stats.UsedGlobal {
			t.Error("collective reader ignored the flattened index")
		}
		verifyN1(t, rd, n, blocks, bs)
		rd.Close()
	})
}

// TestOpenProbesGlobalIndexOnce: a collective Index Flatten or Parallel
// Index Read open surveys the container once, whatever the writers left
// behind.  Both modes touch meta/global.index alike on a given container
// (one failed probe when it was never flattened), serve a flattened one
// from the global index and any other through the Parallel Index Read
// groups, and count one cache miss per open.  Every rank merges once:
// over a flattened container rank 0 broadcasts the records as it read
// them and builds after the broadcast like the others, so each open
// holds one open/merge span per rank.
func TestOpenProbesGlobalIndexOnce(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(128)
	var counting atomic.Bool
	var globalOps atomic.Int64
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	r.newVols = func() []plfs.Backend {
		return []plfs.Backend{plfs.Interpose(osfs.New(), func(op *plfs.Op, call func() error) error {
			if counting.Load() && strings.HasSuffix(op.Path, "/meta/global.index") {
				globalOps.Add(1)
			}
			return call()
		})}
	}
	for _, name := range []string{"plain", "flat"} {
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			writeN1(t, r.m, ctx, rank, n, blocks, bs, name)
		})
	}
	if err := r.m.Flatten(r.ctx(0, nil), "flat"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain", "flat"} {
		flattened := name == "flat"
		wantMode := plfs.ParallelIndexRead
		if flattened {
			wantMode = plfs.IndexFlatten
		}
		var ops []int64
		for _, mode := range []plfs.Mode{plfs.IndexFlatten, plfs.ParallelIndexRead} {
			// A fresh mount per open: its cache is cold, so rank 0 misses.
			m := plfs.NewMount(r.roots, plfs.Options{IndexMode: mode, NumSubdirs: 2})
			reg := obs.New()
			globalOps.Store(0)
			counting.Store(true)
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				ctx.Obs = reg
				rd, err := m.OpenReader(ctx, name)
				if err != nil {
					t.Errorf("%s in %v: open: %v", name, mode, err)
					return
				}
				if rd.Stats.Mode != wantMode || rd.Stats.UsedGlobal != flattened {
					t.Errorf("%s in %v: rank %d served as %v (global %v), want %v (global %v)",
						name, mode, rank, rd.Stats.Mode, rd.Stats.UsedGlobal, wantMode, flattened)
				}
				verifyN1(t, rd, n, blocks, bs)
				rd.Close()
			})
			counting.Store(false)
			if miss := reg.Counter("plfs.index.cache.miss").Value(); miss != 1 {
				t.Errorf("%s in %v: %d cache misses, want 1", name, mode, miss)
			}
			if merges := mergeSpans(reg); merges != n {
				t.Errorf("%s in %v: %d open/merge spans over %d ranks, want one per rank", name, mode, merges, n)
			}
			ops = append(ops, globalOps.Load())
		}
		if ops[0] != ops[1] {
			t.Errorf("%s: %d ops on meta/global.index in Index Flatten mode, %d in Parallel Index Read mode; want the same",
				name, ops[0], ops[1])
		}
		if !flattened && ops[0] != 1 {
			t.Errorf("%s: %d ops on meta/global.index, want one probe", name, ops[0])
		}
	}
}

// mergeSpans counts the merge spans directly under an open span.
func mergeSpans(reg *obs.Registry) int {
	names := map[uint64]string{}
	for _, s := range reg.Spans() {
		names[s.ID] = s.Name
	}
	n := 0
	for _, s := range reg.Spans() {
		if s.Name == "merge" && names[s.Parent] == "open" {
			n++
		}
	}
	return n
}

func TestFlattenMissingContainerFails(t *testing.T) {
	r := newRig(t, 1, plfs.Options{})
	if err := r.m.Flatten(r.ctx(0, nil), "ghost"); err == nil {
		t.Fatal("flatten of missing container succeeded")
	}
}

// TestContainerRename: renaming a container moves canonical and shadow
// directories and invalidates any flattened index.
func TestContainerRename(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(128)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "before")
	})
	ctx := r.ctx(0, nil)
	if err := r.m.Flatten(ctx, "before"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Rename(ctx, "before", "after"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.m.IsContainer(ctx, "before"); ok {
		t.Fatal("old name still a container")
	}
	rd, err := r.m.OpenReader(ctx, "after")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Stats.UsedGlobal {
		t.Fatal("stale flattened index survived rename")
	}
	verifyN1(t, rd, n, blocks, bs)
	if err := r.m.Rename(ctx, "missing", "x"); err == nil {
		t.Fatal("rename of missing container succeeded")
	}
}

func TestTruncateEmptiesContainer(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(128)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "tr")
	})
	ctx := r.ctx(0, nil)
	if err := r.m.Truncate(ctx, "tr"); err != nil {
		t.Fatal(err)
	}
	fi, err := r.m.Stat(ctx, "tr")
	if err != nil || fi.Size != 0 {
		t.Fatalf("post-truncate stat = %+v, %v", fi, err)
	}
	// The container can be rewritten afterwards.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, 1, bs, "tr")
	})
	rd, err := r.m.OpenReader(ctx, "tr")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	verifyN1(t, rd, n, 1, bs)
	if err := r.m.Truncate(ctx, "nope"); err == nil {
		t.Fatal("truncate of missing container succeeded")
	}
}

func TestCheckCleanAndCorrupt(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(128)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "chk")
	})
	ctx := r.ctx(0, nil)
	rep, err := r.m.Scrub(ctx, "chk")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean container failed scrub: %s", rep)
	}
	if rep.Droppings != n || rep.Logical != int64(n*blocks)*bs {
		t.Fatalf("report = %+v", rep)
	}
	// Corrupt a data dropping by truncating it: records become
	// out-of-bounds and coverage mismatches.
	dd, _ := filepath.Glob(filepath.Join(r.roots[0], "chk", "hostdir.*", "dropping.data.*"))
	if err := os.Truncate(dd[0], 10); err != nil {
		t.Fatal(err)
	}
	rep, err = r.m.Scrub(ctx, "chk")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupt container passed scrub")
	}
}

// TestIndexCompression: a segmented (contiguous) writer produces one
// index record regardless of op count.
func TestIndexCompression(t *testing.T) {
	write := func(opt plfs.Options) int {
		r := newRig(t, 1, opt)
		ctx := r.ctx(0, nil)
		w, err := r.m.Create(ctx, "seg")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 16; k++ {
			off := int64(k) * 64
			if err := w.Write(off, payload.Synthetic(1, off, 64)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		rd, err := r.m.OpenReader(ctx, "seg")
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		got, _ := rd.ReadAt(0, 16*64)
		if !payload.ContentEqual(got, payload.List{payload.Synthetic(1, 0, 16*64)}) {
			t.Fatal("content mismatch")
		}
		return rd.Stats.RawEntries
	}
	if got := write(plfs.Options{IndexMode: plfs.Original}); got != 1 {
		t.Fatalf("compressed entries = %d, want 1", got)
	}
}
