package osfs_test

import (
	"errors"
	iofs "io/fs"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"plfs/internal/extent"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestErrorClassification pins the error identities the retry policy and
// the container protocol depend on: exclusive create reports ErrExist,
// missing files report ErrNotExist, and neither is retryable.
func TestErrorClassification(t *testing.T) {
	dir := t.TempDir()
	b := osfs.New()

	p := filepath.Join(dir, "f")
	f, err := b.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := b.Create(p); !errors.Is(err, iofs.ErrExist) {
		t.Errorf("second create = %v, want ErrExist", err)
	} else if plfs.Retryable(err) {
		t.Errorf("ErrExist is retryable")
	}
	if _, err := b.OpenRead(filepath.Join(dir, "missing")); !errors.Is(err, iofs.ErrNotExist) {
		t.Errorf("open missing = %v, want ErrNotExist", err)
	} else if plfs.Retryable(err) {
		t.Errorf("ErrNotExist is retryable")
	}
	if err := b.Mkdir(dir); !errors.Is(err, iofs.ErrExist) {
		t.Errorf("mkdir existing = %v, want ErrExist", err)
	}
}

// TestAppendReadRoundTrip covers the file surface the droppings use:
// append-only writes, positional reads, sizes.
func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := osfs.New()
	f, err := b.Create(filepath.Join(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	off1, err := f.Append(payload.Synthetic(1, 0, 100))
	if err != nil || off1 != 0 {
		t.Fatalf("first append = (%d, %v), want (0, nil)", off1, err)
	}
	off2, err := f.Append(payload.Synthetic(2, 100, 50))
	if err != nil || off2 != 100 {
		t.Fatalf("second append = (%d, %v), want (100, nil)", off2, err)
	}
	if got := f.Size(); got != 150 {
		t.Fatalf("size = %d, want 150", got)
	}
	pl, err := f.ReadAt(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := payload.List{}.Append(payload.Synthetic(2, 100, 50))
	if !payload.ContentEqual(pl, want) {
		t.Errorf("positional read returned wrong bytes")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIOAdvertised: the benchmark module's traced osfs wrapper
// forwards this marker, so osfs must keep advertising it.
func TestConcurrentIOAdvertised(t *testing.T) {
	var b plfs.Backend = osfs.New()
	c, ok := b.(plfs.ConcurrentIO)
	if !ok || !c.ConcurrentIO() {
		t.Fatalf("osfs does not advertise ConcurrentIO")
	}
}

// TestConcurrentReadsOnOneHandle is what ConcurrentIO promises, for the
// race detector: positional reads from many goroutines on one handle, so
// on a handle that never appended the flush every read starts with must
// not write handle state.
func TestConcurrentReadsOnOneHandle(t *testing.T) {
	p := filepath.Join(t.TempDir(), "d")
	b := osfs.New()
	f, err := b.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	f.Append(payload.Synthetic(1, 0, 4096))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = b.OpenRead(p); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 64; i++ {
				off := (g*64 + i) * 16
				want := payload.List{payload.Synthetic(1, off, 16)}
				if pl, err := f.ReadAt(off, 16); err != nil || !payload.ContentEqual(pl, want) {
					t.Errorf("ReadAt(%d): err %v", off, err)
				}
				if pl, err := f.ReadvAt([]extent.Ext{{Off: off, Len: 16}}); err != nil || !payload.ContentEqual(pl, want) {
					t.Errorf("ReadvAt(%d): err %v", off, err)
				}
				if sz := f.Size(); sz != 4096 {
					t.Errorf("Size = %d, want 4096", sz)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestPathLocksScopedPerFS is the regression test for the process-global
// lock table: two backends (two mounts) locking the same path must not
// block each other — each FS built by New carries its own table, so
// unrelated mounts never serialize on matching path strings.
func TestPathLocksScopedPerFS(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "shared-name")
	a, b := osfs.New(), osfs.New()
	fa, err := a.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := b.OpenWrite(p)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	la := fa.(plfs.RangeLocker)
	lb := fb.(plfs.RangeLocker)
	if err := la.LockRange(0, 1); err != nil {
		t.Fatal(err)
	}
	defer la.UnlockRange(0, 1)

	// With the old global table this deadlocks: b's lock keys to the
	// same path string a already holds.
	done := make(chan struct{})
	go func() {
		lb.LockRange(0, 1)
		lb.UnlockRange(0, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second mount blocked on the first mount's path lock")
	}
}
