package plfs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// TestIndexCacheSecondOpenHits: the headline cross-open cache property —
// a second serial open of an unchanged container reads zero index bytes
// and is visible as a hit on the obs counters.
func TestIndexCacheSecondOpenHits(t *testing.T) {
	const n, blocks, bs = 4, 3, int64(256)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "cached")
	})
	reg := obs.New()
	ctx := r.ctx(0, nil)
	ctx.Obs = reg

	rd, err := r.m.OpenReader(ctx, "cached")
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.CacheHit {
		t.Fatal("first open reported a cache hit")
	}
	if rd.Stats.IndexReads == 0 {
		t.Fatal("first open read no index droppings")
	}
	verifyN1(t, rd, n, blocks, bs)
	rd.Close()

	rd, err = r.m.OpenReader(ctx, "cached")
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Stats.CacheHit {
		t.Fatal("second open missed the index cache")
	}
	if rd.Stats.IndexReads != 0 || rd.Stats.IndexBytes != 0 {
		t.Fatalf("cache hit still read %d index files (%d bytes)",
			rd.Stats.IndexReads, rd.Stats.IndexBytes)
	}
	verifyN1(t, rd, n, blocks, bs)
	rd.Close()

	if h := reg.Counter("plfs.index.cache.hit").Value(); h != 1 {
		t.Fatalf("cache.hit = %d, want 1", h)
	}
	if m := reg.Counter("plfs.index.cache.miss").Value(); m != 1 {
		t.Fatalf("cache.miss = %d, want 1", m)
	}
}

// TestIndexCacheCollectiveModes: rank 0's cache hit rides the header
// broadcast, so a second collective open does zero index reads on every
// rank, in both coordinated modes.
func TestIndexCacheCollectiveModes(t *testing.T) {
	const n, blocks, bs = 6, 4, int64(128)
	for _, mode := range []plfs.Mode{plfs.IndexFlatten, plfs.ParallelIndexRead} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, 1, plfs.Options{IndexMode: mode})
			runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
				writeN1(t, r.m, ctx, rank, n, blocks, bs, "coll")
			})
			open := func(wantHit bool) {
				runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
					rd, err := r.m.OpenReader(ctx, "coll")
					if err != nil {
						t.Errorf("rank %d open: %v", rank, err)
						return
					}
					defer rd.Close()
					if rd.Stats.CacheHit != wantHit {
						t.Errorf("rank %d CacheHit = %v, want %v", rank, rd.Stats.CacheHit, wantHit)
					}
					if wantHit && (rd.Stats.IndexReads != 0 || rd.Stats.IndexBytes != 0) {
						t.Errorf("rank %d cache hit read %d index files (%d bytes)",
							rank, rd.Stats.IndexReads, rd.Stats.IndexBytes)
					}
					verifyN1(t, rd, n, blocks, bs)
				})
			}
			open(false)
			open(true)
		})
	}
}

// TestOriginalCollectiveNeverCaches: the collective Original baseline is
// the paper's uncoordinated N² design; ranks must not share aggregation
// state through the cache in either direction.
func TestOriginalCollectiveNeverCaches(t *testing.T) {
	const n, blocks, bs = 4, 2, int64(128)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "orig")
	})
	for round := 0; round < 2; round++ {
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			rd, err := r.m.OpenReader(ctx, "orig")
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			defer rd.Close()
			if rd.Stats.CacheHit {
				t.Errorf("round %d rank %d: collective Original hit the cache", round, rank)
			}
			if rd.Stats.IndexReads == 0 {
				t.Errorf("round %d rank %d: collective Original read no indexes", round, rank)
			}
		})
	}
}

// TestIndexCacheDisabled: NoIndexCache restores re-aggregation per open.
func TestIndexCacheDisabled(t *testing.T) {
	const n, blocks, bs = 3, 2, int64(128)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original, NoIndexCache: true})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, "nocache")
	})
	ctx := r.ctx(0, nil)
	for i := 0; i < 2; i++ {
		rd, err := r.m.OpenReader(ctx, "nocache")
		if err != nil {
			t.Fatal(err)
		}
		if rd.Stats.CacheHit {
			t.Fatalf("open %d hit a disabled cache", i)
		}
		if rd.Stats.IndexReads == 0 {
			t.Fatalf("open %d read no index droppings", i)
		}
		rd.Close()
	}
}

// TestIndexCacheInvalidation: every mutation — rewrite, truncate, rename
// — must advance the generation so the next open re-aggregates.
func TestIndexCacheInvalidation(t *testing.T) {
	const bs = int64(512)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	writeTag := func(name string, tag uint64) {
		w, err := r.m.Create(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(0, payload.Synthetic(tag, 0, bs)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(name string, tag uint64, wantHit bool) {
		t.Helper()
		rd, err := r.m.OpenReader(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if rd.Stats.CacheHit != wantHit {
			t.Fatalf("%s: CacheHit = %v, want %v", name, rd.Stats.CacheHit, wantHit)
		}
		got, err := rd.ReadAt(0, bs)
		if err != nil {
			t.Fatal(err)
		}
		if !payload.ContentEqual(got, payload.List{payload.Synthetic(tag, 0, bs)}) {
			t.Fatalf("%s: content is not tag %d", name, tag)
		}
	}

	writeTag("inv", 1)
	expect("inv", 1, false) // populate
	expect("inv", 1, true)  // hit

	writeTag("inv", 2)      // rewrite: generation advanced at close
	expect("inv", 2, false) // must re-aggregate, not serve tag 1
	expect("inv", 2, true)

	if err := r.m.Truncate(ctx, "inv"); err != nil {
		t.Fatal(err)
	}
	rd, err := r.m.OpenReader(ctx, "inv")
	if err != nil {
		t.Fatal(err)
	}
	if rd.Stats.CacheHit || rd.Size() != 0 {
		t.Fatalf("post-truncate open: CacheHit=%v size=%d", rd.Stats.CacheHit, rd.Size())
	}
	rd.Close()

	writeTag("inv", 3)
	expect("inv", 3, false)
	expect("inv", 3, true)
	if err := r.m.Rename(ctx, "inv", "inv2"); err != nil {
		t.Fatal(err)
	}
	expect("inv2", 3, false) // new name: no cached aggregation
	if _, err := r.m.OpenReader(ctx, "inv"); err == nil {
		t.Fatal("old name still opens after rename")
	}
}

// TestIndexCacheConcurrentRewrite is the -race stress: readers loop
// OpenReader while a writer rewrites the container; every read must see
// one complete write generation (uniform content), and an open issued
// after a Close returns must see that close's data — never a stale
// cached generation.
func TestIndexCacheConcurrentRewrite(t *testing.T) {
	const rounds, bs = 6, int64(1024)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	wctx := r.ctx(0, nil)

	writeTag := func(tag uint64) {
		w, err := r.m.Create(wctx, "hot")
		if err != nil {
			t.Error(err)
			return
		}
		if err := w.Write(0, payload.Synthetic(tag, 0, bs)); err != nil {
			t.Error(err)
		}
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}
	writeTag(1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := r.ctx(g+1, nil)
			for {
				select {
				case <-done:
					return
				default:
				}
				rd, err := r.m.OpenReader(ctx, "hot")
				if err != nil {
					continue // mid-truncate windows can race the reader
				}
				if rd.Size() == bs {
					got, err := rd.ReadAt(0, bs)
					if err != nil {
						t.Errorf("reader %d: %v", g, err)
					} else {
						ok := false
						for tag := uint64(1); tag <= rounds; tag++ {
							if payload.ContentEqual(got, payload.List{payload.Synthetic(tag, 0, bs)}) {
								ok = true
								break
							}
						}
						if !ok {
							t.Errorf("reader %d: torn content (no single write generation)", g)
						}
					}
				}
				rd.Close()
			}
		}(g)
	}
	for tag := uint64(2); tag <= rounds; tag++ {
		writeTag(tag)
		// The writer's own open after Close must see this generation.
		rd, err := r.m.OpenReader(wctx, "hot")
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.ReadAt(0, bs)
		if err != nil {
			t.Fatal(err)
		}
		if !payload.ContentEqual(got, payload.List{payload.Synthetic(tag, 0, bs)}) {
			t.Fatalf("open after close of generation %d served stale content", tag)
		}
		rd.Close()
	}
	close(done)
	wg.Wait()
}

// TestReadBackAcrossFeatureCombos: every combination of run compression
// × index cache × sieve gap must return byte-identical logical content,
// including overwrites and holes.
func TestReadBackAcrossFeatureCombos(t *testing.T) {
	const blocks, bs, stride = 10, int64(512), int64(1024)
	write := func(m *plfs.Mount, ctx plfs.Ctx) {
		w, err := m.Create(ctx, "combo")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < blocks; k++ { // strided blocks with holes between
			off := int64(k) * stride
			if err := w.Write(off, payload.Synthetic(uint64(k+1), off, bs)); err != nil {
				t.Fatal(err)
			}
		}
		// Overwrite straddling block 3's interior (splits resolved pieces).
		if err := w.Write(3*stride+7, payload.Synthetic(99, 0, 100)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var ref []byte
	var refStrided []byte
	for _, compressOff := range []bool{false, true} {
		for _, cacheOff := range []bool{false, true} {
			for _, gap := range []int64{0, 1 << 20} {
				name := fmt.Sprintf("compressOff=%v/cacheOff=%v/gap=%d", compressOff, cacheOff, gap)
				r := newRig(t, 1, plfs.Options{
					IndexMode:        plfs.Original,
					NoRunCompression: compressOff,
					NoIndexCache:     cacheOff,
					SieveGap:         gap,
				})
				ctx := r.ctx(0, nil)
				write(r.m, ctx)
				rd, err := r.m.OpenReader(ctx, "combo")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				full, err := rd.ReadAt(0, rd.Size())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var strided []byte
				for k := 0; k < blocks; k += 2 { // noncontiguous read pattern
					pl, err := rd.ReadAt(int64(k)*stride+3, bs/2)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					strided = append(strided, pl.Materialize()...)
				}
				rd.Close()
				if ref == nil {
					ref, refStrided = full.Materialize(), strided
					continue
				}
				if !bytes.Equal(full.Materialize(), ref) {
					t.Fatalf("%s: full read-back differs from reference", name)
				}
				if !bytes.Equal(strided, refStrided) {
					t.Fatalf("%s: strided read-back differs from reference", name)
				}
			}
		}
	}
}

// TestGlobalIndexCompressionShrinks: a strided N-1 checkpoint's global
// index must shrink at least 10x with run compression on (the O(1)-per-
// writer property), with read-back unchanged.
func TestGlobalIndexCompressionShrinks(t *testing.T) {
	const n, blocks, bs = 8, 40, int64(512)
	size := func(compress bool) int64 {
		r := newRig(t, 1, plfs.Options{IndexMode: plfs.IndexFlatten, NoRunCompression: !compress})
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			writeN1(t, r.m, ctx, rank, n, blocks, bs, "fig5")
		})
		runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
			rd, err := r.m.OpenReader(ctx, "fig5")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			defer rd.Close()
			if !rd.Stats.UsedGlobal {
				t.Error("flattened index not used")
			}
			verifyN1(t, rd, n, blocks, bs)
		})
		p := filepath.Join(r.roots[0], "fig5", "meta", "global.index")
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	compressed, uncompressed := size(true), size(false)
	if compressed*10 > uncompressed {
		t.Fatalf("global index %d bytes compressed vs %d uncompressed: shrink < 10x",
			compressed, uncompressed)
	}
}

// TestLookupAllocFree is the allocation-regression guard: lookups through
// a reused piece buffer must not allocate, on both the run-table path (a
// strided writer) and the segment path (irregular writes).
func TestLookupAllocFree(t *testing.T) {
	const blocks, bs, stride = 64, int64(256), int64(1024)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
	ctx := r.ctx(0, nil)
	w, err := r.m.Create(ctx, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < blocks; k++ {
		off := int64(k) * stride
		if err := w.Write(off, payload.Synthetic(1, off, bs)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	rd, err := r.m.OpenReader(ctx, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	ix := rd.Index()
	if ix.Runs() == 0 {
		t.Fatal("strided container built no run records")
	}
	buf := make([]plfs.Piece, 0, 64)
	var off int64
	allocs := testing.AllocsPerRun(200, func() {
		buf = ix.AppendPieces(buf[:0], off%ix.Size(), 4*stride)
		off += stride + 13
	})
	if allocs != 0 {
		t.Fatalf("AppendPieces allocated %.1f times per lookup, want 0", allocs)
	}

	// A read that resolves to one piece is one backend read: whatever the
	// store allocates for the bytes it returns, plus at most one.
	p := rd.Index().AppendPieces(nil, 0, bs)[0]
	f, err := osfs.New().OpenRead(rd.Index().Droppings()[p.Dropping])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	backend := testing.AllocsPerRun(200, func() { f.ReadAt(p.PhysOff, p.Length) })
	off = 0
	reader := testing.AllocsPerRun(200, func() {
		if _, err := rd.ReadAt(off, bs); err != nil {
			t.Fatal(err)
		}
		off = (off + stride) % (blocks * stride)
	})
	if reader > backend+1 {
		t.Fatalf("single-piece ReadAt allocated %.1f times, backend read %.1f: want at most one more", reader, backend)
	}
}
