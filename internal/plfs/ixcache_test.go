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

// writeTagged writes one bs-byte block of content tag at offset 0 of name.
func writeTagged(t *testing.T, m *plfs.Mount, ctx plfs.Ctx, name string, tag uint64, bs int64) {
	t.Helper()
	w, err := m.Create(ctx, name)
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

// openTagged opens name, checks that it reads back as writeTagged's
// block of tag, and reports whether the open was a cache hit.
func openTagged(t *testing.T, m *plfs.Mount, ctx plfs.Ctx, name string, tag uint64, bs int64) bool {
	t.Helper()
	rd, err := m.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer rd.Close()
	got, err := rd.ReadAt(0, bs)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	if !payload.ContentEqual(got, payload.List{payload.Synthetic(tag, 0, bs)}) {
		t.Fatalf("%s: content is not tag %d", name, tag)
	}
	return rd.Stats.CacheHit
}

// openMissing opens a name that was never written.  The open creates an
// empty container state before it fails; on a full economy that pushes
// usage over budget, which evicts the least recently used idle state.
func openMissing(t *testing.T, m *plfs.Mount, ctx plfs.Ctx) {
	t.Helper()
	if _, err := m.OpenReader(ctx, "absent"); err == nil {
		t.Fatal("opened a container that was never written")
	}
}

// stateOverhead is what the economy charges for one container state with
// nothing parsed or built: all that openMissing leaves on a fresh mount.
func stateOverhead(t *testing.T, roots []string, ctx plfs.Ctx) int64 {
	t.Helper()
	m := plfs.NewMount(roots, plfs.Options{})
	openMissing(t, m, ctx)
	ovh := plfs.EconomyUsed(m)
	if ovh <= 0 {
		t.Fatalf("a container state costs %d bytes, want > 0", ovh)
	}
	return ovh
}

// econ reads a service's economy gauges: resident bytes, states shed and
// bytes shed.
func econ(svc *plfs.Service) (used, evictions, evicted int64) {
	g := svc.Obs().Gauge
	return int64(g("plfs.econ.used_bytes").Value()), int64(g("plfs.econ.evictions").Value()),
		int64(g("plfs.econ.evicted_bytes").Value())
}

// TestIndexCacheLRUEviction: under budget pressure the container opened
// least recently is shed first, built index and all, and the shed bytes
// are counted; the containers opened since keep serving hits.
func TestIndexCacheLRUEviction(t *testing.T) {
	const bs = int64(256)
	w := newRig(t, 1, plfs.Options{})
	w.clock.t.Store(1_000_000) // equal-width dropping names, so equal footprints
	ctx := w.ctx(0, nil)
	names := []string{"k0", "k1", "k2", "k3"}
	var one int64
	for i, name := range names {
		writeTagged(t, w.m, ctx, name, uint64(i+1), bs)
		fresh := plfs.NewMount(w.roots, plfs.Options{})
		openTagged(t, fresh, ctx, name, uint64(i+1), bs)
		fp := plfs.EconomyUsed(fresh)
		if i > 0 && fp != one {
			t.Fatalf("%s costs %d bytes resident, k0 %d: the budget below assumes one size", name, fp, one)
		}
		one = fp
	}

	svc := plfs.NewService(plfs.ServiceOptions{CacheBudgetBytes: 3 * one})
	m := svc.Mount(w.roots, plfs.Options{})
	hit := func(i int) bool { return openTagged(t, m, ctx, names[i], uint64(i+1), bs) }
	for i := 0; i < 3; i++ {
		if hit(i) {
			t.Fatalf("first open of %s hit", names[i])
		}
	}
	if used, _, _ := econ(svc); used != 3*one {
		t.Fatalf("used = %d, want %d", used, 3*one)
	}

	// Reopen k0 so k1 is least recently used, then overflow with k3: k1
	// must go, and only k1.
	if !hit(0) {
		t.Fatal("k0 missed before any eviction")
	}
	if hit(3) {
		t.Fatal("first open of k3 hit")
	}
	if used, evictions, evicted := econ(svc); evictions != 1 || evicted != one || used != 3*one {
		t.Fatalf("evictions %d (%d bytes), used %d; want 1 (%d bytes), used %d",
			evictions, evicted, used, one, 3*one)
	}
	for _, i := range []int{0, 2, 3} {
		if !hit(i) {
			t.Fatalf("%s evicted, want k1 only", names[i])
		}
	}
	if hit(1) {
		t.Fatal("k1 survived eviction but was least recently used")
	}
}

// TestIndexCacheGenerationRules: an open is served an earlier open's build
// only if nothing changed the container in between, the index fits the
// cache budget, and the earlier open went through the same mount.
func TestIndexCacheGenerationRules(t *testing.T) {
	const bs = int64(512)
	t.Run("older-generation", func(t *testing.T) {
		w := newRig(t, 1, plfs.Options{})
		ctx := w.ctx(0, nil)
		m := plfs.NewService(plfs.ServiceOptions{}).Mount(w.roots, plfs.Options{})
		writeTagged(t, m, ctx, "g", 1, bs)
		if openTagged(t, m, ctx, "g", 1, bs) || !openTagged(t, m, ctx, "g", 1, bs) {
			t.Fatal("want a miss, then a hit")
		}
		// An open while a writer is attached builds at the writer's
		// generation; its close moves on, so that build is never served.
		wr, err := m.Create(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if openTagged(t, m, ctx, "g", 1, bs) {
			t.Fatal("open after a writer attached was served the pre-attach build")
		}
		if err := wr.Write(0, payload.Synthetic(2, 0, bs)); err != nil {
			t.Fatal(err)
		}
		if err := wr.Close(); err != nil {
			t.Fatal(err)
		}
		if openTagged(t, m, ctx, "g", 2, bs) || !openTagged(t, m, ctx, "g", 2, bs) {
			t.Fatal("after the writer closed: want a miss, then a hit")
		}
		// Truncate drops the build and the parsed shards with their
		// charges: what stays is the state itself.
		if err := m.Truncate(ctx, "g"); err != nil {
			t.Fatal(err)
		}
		if got, want := plfs.EconomyUsed(m), stateOverhead(t, w.roots, ctx); got != want {
			t.Fatalf("used after truncate = %d, want the state overhead %d", got, want)
		}
	})

	t.Run("oversized-index", func(t *testing.T) {
		const n, blocks = 8, 2
		w := newRig(t, 1, plfs.Options{})
		runRanks(t, w, n, func(ctx plfs.Ctx, rank int) {
			writeN1(t, w.m, ctx, rank, n, blocks, bs, "big")
		})
		ctx := w.ctx(0, nil)
		ovh := stateOverhead(t, w.roots, ctx)
		for _, budget := range []int64{2 * ovh, 64 << 20} {
			svc := plfs.NewService(plfs.ServiceOptions{CacheBudgetBytes: budget})
			m := svc.Mount(w.roots, plfs.Options{})
			rd, err := m.OpenReader(ctx, "big")
			if err != nil {
				t.Fatal(err)
			}
			// A lower bound on the index's charge: fixed part plus paths.
			least := int64(160)
			for _, d := range rd.Index().Droppings() {
				least += int64(len(d)) + 16
			}
			rd.Close()
			over := least > budget
			if budget < 64<<20 && !over {
				t.Fatalf("index costs at least %d bytes, not over the %d-byte budget", least, budget)
			}
			rd, err = m.OpenReader(ctx, "big")
			if err != nil {
				t.Fatal(err)
			}
			verifyN1(t, rd, n, blocks, bs)
			rd.Close()
			if rd.Stats.CacheHit == over {
				t.Fatalf("budget %d, index >= %d bytes: second open CacheHit = %v", budget, least, rd.Stats.CacheHit)
			}
			if !over {
				continue
			}
			// Nothing leaks: evicting the container returns every byte.
			openMissing(t, m, ctx)
			if used, evictions, _ := econ(svc); used != ovh || evictions != 1 {
				t.Fatalf("after eviction: used %d, evictions %d; want %d, 1", used, evictions, ovh)
			}
		}
	})

	t.Run("drop-is-per-mount", func(t *testing.T) {
		svc := plfs.NewService(plfs.ServiceOptions{})
		var ms [2]*plfs.Mount
		var ctxs [2]plfs.Ctx
		for i := range ms {
			w := newRig(t, 1, plfs.Options{})
			ms[i] = svc.Mount(w.roots, plfs.Options{})
			ctxs[i] = w.ctx(0, nil)
			writeTagged(t, ms[i], ctxs[i], "c", uint64(i+1), bs) // same name, different content
		}
		for round, want := range []bool{false, true} {
			for i, m := range ms {
				if got := openTagged(t, m, ctxs[i], "c", uint64(i+1), bs); got != want {
					t.Fatalf("round %d mount %d: CacheHit = %v, want %v", round, i, got, want)
				}
			}
		}
		ms[0].DropIndexCache()
		if !openTagged(t, ms[1], ctxs[1], "c", 2, bs) {
			t.Fatal("dropping one mount's cache dropped another's")
		}
		if openTagged(t, ms[0], ctxs[0], "c", 1, bs) {
			t.Fatal("open after DropIndexCache hit")
		}
	})
}

// writeReversed writes rank's share of an N-1 file back to front: the
// blocks at (k*n + rank) * bs for k from blocks-1 down to 0.
func writeReversed(t testing.TB, m *plfs.Mount, ctx plfs.Ctx, rank, n, blocks int, bs int64, name string) {
	t.Helper()
	w, err := m.Create(ctx, name)
	if err != nil {
		t.Errorf("rank %d create: %v", rank, err)
		return
	}
	for k := blocks - 1; k >= 0; k-- {
		off := int64(k*n+rank) * bs
		if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
			t.Errorf("rank %d write: %v", rank, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Errorf("rank %d close: %v", rank, err)
	}
}

// TestEconomyChargesBuiltIndex: a resident built index is charged whether
// or not it may serve later opens.  One open leaves the same bytes charged
// with the cross-open cache on, with it off, and in a collective Original
// open, and once the cache is dropped eviction returns all of them.
func TestEconomyChargesBuiltIndex(t *testing.T) {
	const n, blocks, bs = 4, 64, int64(128)
	w := newRig(t, 1, plfs.Options{})
	runRanks(t, w, n, func(ctx plfs.Ctx, rank int) {
		writeReversed(t, w.m, ctx, rank, n, blocks, bs, "eco")
	})
	opened := func(opt plfs.Options, collective bool) int64 {
		r := &rig{m: plfs.NewMount(w.roots, opt), roots: w.roots, clock: w.clock}
		before := plfs.EconomyUsed(r.m)
		ranks := 1
		if collective {
			ranks = n
		}
		runRanks(t, r, ranks, func(ctx plfs.Ctx, rank int) {
			if !collective {
				ctx.Comm = nil
			}
			rd, err := r.m.OpenReader(ctx, "eco")
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			verifyN1(t, rd, n, blocks, bs)
			rd.Close()
		})
		return plfs.EconomyUsed(r.m) - before
	}
	cached := opened(plfs.Options{IndexMode: plfs.Original}, false)
	uncached := opened(plfs.Options{IndexMode: plfs.Original, NoIndexCache: true}, false)
	collective := opened(plfs.Options{IndexMode: plfs.Original}, true)
	if cached != uncached || cached != collective {
		t.Fatalf("an open charged %d bytes with the cache, %d without, %d collective Original; want one figure",
			cached, uncached, collective)
	}

	ctx := w.ctx(0, nil)
	ovh := stateOverhead(t, w.roots, ctx)
	svc := plfs.NewService(plfs.ServiceOptions{CacheBudgetBytes: cached})
	m := svc.Mount(w.roots, plfs.Options{IndexMode: plfs.Original})
	rd, err := m.OpenReader(ctx, "eco")
	if err != nil {
		t.Fatal(err)
	}
	rd.Close()
	m.DropIndexCache()
	if got, _, _ := econ(svc); got != cached {
		t.Fatalf("used after DropIndexCache = %d, want %d (the index stays resident until evicted)", got, cached)
	}
	openMissing(t, m, ctx)
	if used, evictions, evicted := econ(svc); used != ovh || evictions != 1 || evicted != cached {
		t.Fatalf("after eviction: used %d, evictions %d (%d bytes); want the new state's %d, 1 (%d bytes)",
			used, evictions, evicted, ovh, cached)
	}
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
