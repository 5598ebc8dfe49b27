package plfs_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestStatFallsBackWhenSizeRecordLost simulates a job that died before
// recording the logical size in the metadir: Stat must rebuild the size
// from the index droppings (the slow path).
func TestStatFallsBackWhenSizeRecordLost(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 2})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "crashed")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(100, payload.FromBytes(bytes.Repeat([]byte{'x'}, 50)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the size record, as if the writer died mid-close.
	recs, _ := filepath.Glob(filepath.Join(r.roots[0], "crashed", "meta", "sz.*"))
	if len(recs) != 1 {
		t.Fatalf("size records = %v", recs)
	}
	if err := os.Remove(recs[0]); err != nil {
		t.Fatal(err)
	}
	fi, err := r.m.Stat(ctx, "crashed")
	if err != nil {
		t.Fatalf("stat fallback: %v", err)
	}
	if fi.Size != 150 {
		t.Fatalf("fallback size = %d, want 150", fi.Size)
	}
}

// TestCorruptIndexDroppingSurfacesError: a truncated index dropping must
// produce a decode error at read open, not silent data corruption.
func TestCorruptIndexDroppingSurfacesError(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 1})
	ctx := r.ctx(0, nil)
	w, _ := r.m.Create(ctx, "f")
	w.Write(0, payload.FromBytes([]byte("data")))
	w.Close()
	idx, _ := filepath.Glob(filepath.Join(r.roots[0], "f", "hostdir.*", "dropping.index.*"))
	if len(idx) != 1 {
		t.Fatalf("index droppings = %v", idx)
	}
	if err := os.Truncate(idx[0], plfs.EntryBytes-7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.m.OpenReader(ctx, "f"); err == nil {
		t.Fatal("open of corrupt container succeeded")
	}
}

// TestReopenForWriteAppendsNewDroppings: a second write session on an
// existing container adds droppings rather than clobbering; later
// timestamps win overlaps and the logical size grows.
func TestReopenForWriteAppendsNewDroppings(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 1})
	ctx := r.ctx(0, nil)
	w1, err := r.m.Create(ctx, "multi")
	if err != nil {
		t.Fatal(err)
	}
	w1.Write(0, payload.FromBytes([]byte("aaaa")))
	w1.Close()
	w2, err := r.m.Create(ctx, "multi") // same logical file, new session
	if err != nil {
		t.Fatal(err)
	}
	w2.Write(2, payload.FromBytes([]byte("BBBB")))
	w2.Close()
	dd, _ := filepath.Glob(filepath.Join(r.roots[0], "multi", "hostdir.*", "dropping.data.*"))
	if len(dd) != 2 {
		t.Fatalf("data droppings = %d, want 2 (one per session)", len(dd))
	}
	rd, err := r.m.OpenReader(ctx, "multi")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, _ := rd.ReadAt(0, 6)
	if string(got.Materialize()) != "aaBBBB" {
		t.Fatalf("got %q, want aaBBBB", got.Materialize())
	}
}

// TestUnlinkOfNonContainerFails: Unlink refuses paths that are not PLFS
// containers instead of deleting arbitrary directories.
func TestUnlinkOfNonContainerFails(t *testing.T) {
	r := newRig(t, 1, plfs.Options{})
	ctx := r.ctx(0, nil)
	if err := r.m.Mkdir(ctx, "plaindir"); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Unlink(ctx, "plaindir"); err == nil {
		t.Fatal("unlink of plain directory succeeded")
	}
	if err := r.m.Unlink(ctx, "missing"); err == nil {
		t.Fatal("unlink of missing path succeeded")
	}
}

// TestEmptyContainerReadsAsEmpty: a created-then-closed file with no
// writes has logical size zero and reads as holes.
func TestEmptyContainerReadsAsEmpty(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := r.m.Stat(ctx, "empty")
	if err != nil || fi.Size != 0 {
		t.Fatalf("stat = %+v, %v", fi, err)
	}
	rd, err := r.m.OpenReader(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Size() != 0 {
		t.Fatalf("size = %d", rd.Size())
	}
	got, err := rd.ReadAt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got.Materialize() {
		if b != 0 {
			t.Fatal("empty container returned nonzero bytes")
		}
	}
}

// TestZeroLengthWritesAreNoops: zero-length writes add no index entries
// and no bytes.
func TestZeroLengthWritesAreNoops(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w, _ := r.m.Create(ctx, "z")
	if err := w.Write(100, payload.FromBytes(nil)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rd, _ := r.m.OpenReader(ctx, "z")
	defer rd.Close()
	if rd.Size() != 0 || rd.Stats.RawEntries != 0 {
		t.Fatalf("size=%d entries=%d after zero-length write", rd.Size(), rd.Stats.RawEntries)
	}
}

// TestDoubleCloseAndUseAfterClose: lifecycle errors are reported.
func TestDoubleCloseAndUseAfterClose(t *testing.T) {
	r := newRig(t, 1, plfs.Options{})
	ctx := r.ctx(0, nil)
	w, _ := r.m.Create(ctx, "lc")
	w.Write(0, payload.FromBytes([]byte("x")))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("double close succeeded")
	}
	if err := w.Write(0, payload.FromBytes([]byte("y"))); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after close succeeded")
	}
	rd, _ := r.m.OpenReader(ctx, "lc")
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err == nil {
		t.Fatal("reader double close succeeded")
	}
	if _, err := rd.ReadAt(0, 1); err == nil {
		t.Fatal("read after close succeeded")
	}
}

// lossyFS is a store that buffers appends (plfs.Flusher) and whose data
// droppings then fail to write them out: every append is accepted, and the
// write error arrives when the handle is flushed.
type lossyFS struct{ plfs.Backend }

type lossyFile struct{ plfs.File }

var errLost = errors.New("lossy store: buffered appends lost")

func (b lossyFS) Create(path string) (plfs.File, error) {
	f, err := b.Backend.Create(path)
	if err != nil || !strings.Contains(path, "dropping.data.") {
		return f, err
	}
	return lossyFile{f}, nil
}

func (lossyFile) Flush() error { return errLost }

// TestDeferredWriteErrorPublishesNothing: data before index, over a store
// that buffers.  The write error a buffered append could not return reaches
// Sync and Close, and Close treats it as a failed flush: no index dropping,
// no recovery footer and no size record point at the lost bytes.
func TestDeferredWriteErrorPublishesNothing(t *testing.T) {
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 1})
	r.newVols = func() []plfs.Backend { return []plfs.Backend{lossyFS{osfs.New()}} }
	w, err := r.m.Create(r.ctx(0, nil), "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, payload.FromBytes([]byte("data"))); err != nil {
		t.Fatalf("write: %v (the store accepted the append)", err)
	}
	if err := w.Sync(); !errors.Is(err, errLost) {
		t.Errorf("sync: %v, want the store's flush error", err)
	}
	if err := w.Close(); !errors.Is(err, errLost) {
		t.Errorf("close: %v, want the store's flush error", err)
	}
	for _, pat := range []string{"hostdir.*/dropping.index.*", "meta/sz.*"} {
		if got, _ := filepath.Glob(filepath.Join(r.roots[0], "f", pat)); len(got) != 0 {
			t.Errorf("published after a failed flush: %v", got)
		}
	}
	dd, _ := filepath.Glob(filepath.Join(r.roots[0], "f", "hostdir.*", "dropping.data.*"))
	if len(dd) != 1 {
		t.Fatalf("data droppings: %v", dd)
	}
	if fi, err := os.Stat(dd[0]); err != nil || fi.Size() != 4 {
		t.Errorf("data dropping: %v bytes, err %v (want 4: no recovery footer)", fi.Size(), err)
	}
}
