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

// TestConcurrentOpenReaderSharedContainer opens the same container from
// many goroutines at once with the worker pool enabled, exercising the
// per-container parsed/built caches under the race detector.  Every
// reader must see identical, correct bytes.
func TestConcurrentOpenReaderSharedContainer(t *testing.T) {
	const ranks, blocks, readers = 8, 4, 8
	bs := int64(512)
	r := newRig(t, 2, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: 4})
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
			if rd.Stats.DecodeWorkers != 4 {
				t.Errorf("reader %d: DecodeWorkers = %d, want 4", g, rd.Stats.DecodeWorkers)
			}
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
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NumSubdirs: 1, DecodeWorkers: 4})
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

// TestReadFanoutMatchesSerial reads the same container through the
// fan-out and serial plans and requires byte-identical results, plus
// sane ReadStats from both.
func TestReadFanoutMatchesSerial(t *testing.T) {
	const ranks, blocks = 8, 4
	bs := int64(512)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: 4})
	runRanks(t, r, ranks, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, ranks, blocks, bs, "fan")
	})

	serialM := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: 1})
	for name, m := range map[string]*plfs.Mount{"fanout": r.m, "serial": serialM} {
		rd, err := m.OpenReader(r.ctx(0, nil), "fan")
		if err != nil {
			t.Fatalf("%s open: %v", name, err)
		}
		verifyN1(t, rd, ranks, blocks, bs)
		wantWorkers := 4
		if name == "serial" {
			wantWorkers = 1
		}
		if rd.ReadStats.Workers != wantWorkers {
			t.Errorf("%s: ReadStats.Workers = %d, want %d", name, rd.ReadStats.Workers, wantWorkers)
		}
		if rd.ReadStats.Ops == 0 || rd.ReadStats.Pieces == 0 || rd.ReadStats.Batches == 0 {
			t.Errorf("%s: empty ReadStats %+v", name, rd.ReadStats)
		}
		rd.Close()
	}
}

// BenchmarkReadAtFanout compares the serial per-piece read plan against
// the batched fan-out plan on a real-filesystem container whose strided
// layout produces one piece per (rank, block).
func BenchmarkReadAtFanout(b *testing.B) {
	const ranks, blocks = 16, 8
	bs := int64(16 << 10)
	total := int64(ranks*blocks) * bs
	r := newRig(b, 1, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: 1})
	runRanks(b, r, ranks, func(ctx plfs.Ctx, rank int) {
		writeN1(b, r.m, ctx, rank, ranks, blocks, bs, "bench")
	})
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4 // fan-out overlaps I/O waits even on few cores
	}
	run := func(b *testing.B, opt plfs.Options) {
		m := plfs.NewMount(r.roots, opt)
		rd, err := m.OpenReader(r.ctx(0, nil), "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer rd.Close()
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
	b.Run("serial", func(b *testing.B) {
		run(b, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: 1})
	})
	b.Run("parallel", func(b *testing.B) {
		run(b, plfs.Options{IndexMode: plfs.Original, DecodeWorkers: workers})
	})
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
