package osfs_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestDataPathAllocs is the allocation-regression guard for the real data
// path: a small append is copied into the handle's write-behind buffer and
// a large one goes to the kernel from the caller's slice, neither
// allocating per op; a handle that appends a few bytes and closes does not
// pay for a log's buffer; and a positional read allocates its buffer and
// its one-element list, nothing else.
func TestDataPathAllocs(t *testing.T) {
	dir := t.TempDir()
	f, err := osfs.New().Create(filepath.Join(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	appendAllocs := func(p payload.Payload) float64 {
		return testing.AllocsPerRun(1000, func() {
			if _, err := f.Append(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 1,000 runs of 1 KiB cross the 256 KiB flush several times: the buffer
	// is kept across flushes, so its one-time growth rounds to nothing.
	if allocs := appendAllocs(payload.FromBytes(make([]byte, 1<<10))); allocs != 0 {
		t.Errorf("1 KiB append allocated %.1f times per op, want 0 amortised", allocs)
	}
	big := payload.FromBytes(make([]byte, 64<<10))
	if allocs := appendAllocs(big); allocs != 0 {
		t.Errorf("64 KiB append allocated %.1f times per op, want 0", allocs)
	}
	// From the caller's slice, not through the buffer: with no flush asked
	// for, the file seen from outside already ends where the append does.
	end, err := f.Append(big)
	if fi, serr := osfs.New().Stat(filepath.Join(dir, "d")); err != nil || serr != nil || fi.Size != end+big.Len() {
		t.Errorf("64 KiB append at %d (err %v) left the file at %d bytes (err %v), want it written through", end, err, fi.Size, serr)
	}
	var off int64
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ReadAt(off, 4096); err != nil {
			t.Fatal(err)
		}
		off += 4096
	}); allocs > 2 {
		t.Errorf("ReadAt allocated %.1f times, want at most 2 (buffer + list)", allocs)
	}

	// Commit temp files and osfs_stream's two-record footer are this shape.
	small := payload.FromBytes(make([]byte, 100))
	handles := make([]plfs.File, 101)
	for i := range handles {
		if handles[i], err = osfs.New().Create(filepath.Join(dir, fmt.Sprint("s", i))); err != nil {
			t.Fatal(err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, h := range handles {
		if _, err := h.Append(small); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	if per := (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(len(handles)); per > 4<<10 {
		t.Errorf("a handle that appends 100 bytes and closes allocated %d bytes, want at most 4 KiB", per)
	}
}

// TestDeferredWriteErrorIsSticky: small appends to a full device are
// accepted into the handle's buffer, the write error arrives at Flush, and
// from then on the handle refuses everything — the offsets it returned for
// the lost bytes are void.
func TestDeferredWriteErrorIsSticky(t *testing.T) {
	f, err := osfs.New().OpenWrite("/dev/full")
	if err != nil {
		t.Skipf("no /dev/full here: %v", err)
	}
	p := payload.FromBytes([]byte("lost"))
	for i := int64(0); i < 3; i++ {
		if off, err := f.Append(p); err != nil || off != 4*i {
			t.Fatalf("append %d: off %d, err %v (want %d, nil: buffered)", i, off, err, 4*i)
		}
	}
	if err := f.(plfs.Flusher).Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("flush: %v, want ENOSPC", err)
	}
	if _, err := f.Append(p); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("append after failed flush: %v, want ENOSPC", err)
	}
	if _, err := f.Appendv(payload.List{p, p}); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("appendv after failed flush: %v, want ENOSPC", err)
	}
	if err := f.WriteAt(0, p); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("writeat after failed flush: %v, want ENOSPC", err)
	}
	if err := f.(plfs.Flusher).Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("second flush: %v, want ENOSPC", err)
	}
	if err := f.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("close: %v, want ENOSPC", err)
	}
}

// BenchmarkDataPath is the osfs share of the repo benchmark's two real
// workloads in isolation, one leg each way: b.N appends of one op size into
// a fresh file (closed inside the timer, so write-behind bytes are paid
// for), and b.N positional reads of them back.  1 KiB is osfs_smallrand's
// op and 64 KiB is osfs_stream's; 4 and 16 KiB sit either side of the
// coalescing threshold.  Page-cache numbers, like the workloads'.
func BenchmarkDataPath(b *testing.B) {
	for _, op := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		src := make([]byte, op)
		for i := range src {
			src[i] = byte(i)
		}
		p := payload.FromBytes(src)
		fill := func(b *testing.B, path string) {
			f, err := osfs.New().Create(path)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := f.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("append/%dKiB", op>>10), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "d")
			b.SetBytes(int64(op))
			b.ReportAllocs()
			b.ResetTimer()
			fill(b, path)
		})
		b.Run(fmt.Sprintf("read/%dKiB", op>>10), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "d")
			fill(b, path)
			f, err := osfs.New().OpenRead(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.SetBytes(int64(op))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := f.ReadAt(int64(i)*int64(op), int64(op))
				if err != nil || pl.Len() != int64(op) {
					b.Fatalf("read %d: %d bytes, err %v", i, pl.Len(), err)
				}
			}
		})
	}
}
