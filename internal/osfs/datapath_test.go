package osfs_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"plfs/internal/osfs"
	"plfs/internal/payload"
)

// TestDataPathAllocs is the allocation-regression guard for the real data
// path: an append of a byte payload goes to the kernel from the caller's
// slice (no copy, no allocation), and a positional read allocates its
// buffer and its one-element list, nothing else.
func TestDataPathAllocs(t *testing.T) {
	f, err := osfs.New().Create(filepath.Join(t.TempDir(), "d"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := payload.FromBytes(make([]byte, 4096))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Append(p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Append of a byte payload allocated %.1f times, want 0", allocs)
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
}

// BenchmarkDataPath is the osfs share of the repo benchmark's two real
// workloads in isolation: b.N appends of one op size into a fresh file,
// then b.N positional reads of them back (1 KiB is osfs_smallrand's op,
// 64 KiB is osfs_stream's).  Page-cache numbers, like the workloads'.
func BenchmarkDataPath(b *testing.B) {
	for _, op := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", op>>10), func(b *testing.B) {
			f, err := osfs.New().Create(filepath.Join(b.TempDir(), "d"))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			src := make([]byte, op)
			for i := range src {
				src[i] = byte(i)
			}
			p := payload.FromBytes(src)
			b.SetBytes(2 * int64(op)) // each iteration moves the op once each way
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < b.N; i++ {
				pl, err := f.ReadAt(int64(i)*int64(op), int64(op))
				if err != nil || pl.Len() != int64(op) {
					b.Fatalf("read %d: %d bytes, err %v", i, pl.Len(), err)
				}
			}
		})
	}
}
