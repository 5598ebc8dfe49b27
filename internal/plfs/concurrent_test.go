package plfs_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// widePool makes the mounts the test creates afterwards decode on at
// least four workers (a mount's pool is GOMAXPROCS wide), so the race
// detector sees the pool run concurrently on a one-CPU host too.
func widePool(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// TestConcurrentOpenReaderSharedContainer opens the same container from
// many goroutines at once, each decoding on the mount's pool, exercising
// the per-container parsed/built caches under the race detector.  Every
// reader must see identical, correct bytes.
func TestConcurrentOpenReaderSharedContainer(t *testing.T) {
	const ranks, blocks, readers = 8, 4, 8
	bs := int64(512)
	widePool(t)
	r := newRig(t, 2, plfs.Options{IndexMode: plfs.Original})
	runRanks(t, r, ranks, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, ranks, blocks, bs, "shared")
	})

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := r.ctx(g, nil)
			rd, err := r.m.OpenReader(ctx, "shared")
			if err != nil {
				t.Errorf("reader %d: %v", g, err)
				return
			}
			defer rd.Close()
			verifyN1(t, rd, ranks, blocks, bs)
		}(g)
	}
	wg.Wait()
}

// TestCorruptDroppingAggregatedErrorNamesPath corrupts one index dropping
// out of several and asserts the aggregated (joined) open error names the
// bad file — per-shard error collection must not lose the path, and the
// healthy shards must not mask the failure.
func TestCorruptDroppingAggregatedErrorNamesPath(t *testing.T) {
	const ranks = 4
	widePool(t)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 1})
	runRanks(t, r, ranks, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, ranks, 2, 256, "mixed")
	})
	idx, _ := filepath.Glob(filepath.Join(r.roots[0], "mixed", "hostdir.*", "dropping.index.*"))
	if len(idx) != ranks {
		t.Fatalf("index droppings = %d, want %d", len(idx), ranks)
	}
	bad := idx[1]
	if err := os.Truncate(bad, plfs.EntryBytes-3); err != nil {
		t.Fatal(err)
	}
	_, err := r.m.OpenReader(r.ctx(0, nil), "mixed")
	if err == nil {
		t.Fatal("open of corrupt container succeeded")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("aggregated error does not name the corrupt dropping %q:\n%v", bad, err)
	}
	for i, p := range idx {
		if i != 1 && strings.Contains(err.Error(), p) {
			t.Fatalf("error blames healthy dropping %q:\n%v", p, err)
		}
	}
}

// BenchmarkReadAtStrided measures a contiguous read over a container
// whose live extents alternate between two droppings (a checkpoint plus
// a partial overwrite), so each dropping's surviving pieces sit one
// block apart physically.  gap0 issues one read per live piece run;
// sieve coalesces each dropping into a single large read that spans the
// dead bytes in between.
func BenchmarkReadAtStrided(b *testing.B) {
	const blocks = 64
	bs := int64(8 << 10)
	total := int64(blocks) * bs
	r := newRig(b, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "strided")
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < blocks; k++ {
		if err := w.Write(int64(k)*bs, payload.Synthetic(1, int64(k)*bs, bs)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	w, err = r.m.Create(ctx, "strided") // overwrite every other block
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < blocks; k += 2 {
		if err := w.Write(int64(k)*bs, payload.Synthetic(2, int64(k)*bs, bs)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, gap int64) {
		m := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.Original, SieveGap: gap})
		rd, err := m.OpenReader(r.ctx(0, nil), "strided")
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
		b.ReportAllocs()
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl, err := rd.ReadAt(0, total)
			if err != nil {
				b.Fatal(err)
			}
			if got := pl.Len(); got != total {
				b.Fatalf("read %d bytes, want %d", got, total)
			}
		}
	}
	b.Run("gap0", func(b *testing.B) { run(b, 0) })
	b.Run("sieve", func(b *testing.B) { run(b, bs) })
}
