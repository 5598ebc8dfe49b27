package plfs

import (
	"fmt"
	"testing"
)

// cacheTestIndex builds a small distinct index for cache tests: n segments,
// one dropping, disjoint extents so the build keeps every entry.
func cacheTestIndex(n int) *Index {
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{
			LogicalOff: int64(i) * 64,
			Length:     64,
			PhysOff:    int64(i) * 64,
			Timestamp:  int64(i),
			Rank:       0,
		}
	}
	return buildEntries([][]Entry{ents}, []string{"d0"})
}

func TestIndexCacheLRUEviction(t *testing.T) {
	one := cacheTestIndex(8).residentBytes()
	econ := newEconomy(3 * one)
	c := newIndexCache(econ)
	econ.register(c)

	for i := 0; i < 3; i++ {
		if ev := c.put(fmt.Sprintf("k%d", i), 1, cacheTestIndex(8), "t"); ev != 0 {
			t.Fatalf("put k%d evicted %d entries under budget", i, ev)
		}
	}
	if got := econ.stats().UsedBytes; got != 3*one {
		t.Fatalf("used = %d, want %d", got, 3*one)
	}

	// Refresh k0 so k1 is the LRU tail, then overflow: k1 must go.
	if c.get("k0", 1) == nil {
		t.Fatal("k0 missing before eviction")
	}
	if ev := c.put("k3", 1, cacheTestIndex(8), "t"); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if c.get("k1", 1) != nil {
		t.Fatal("k1 survived eviction but was least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if c.get(k, 1) == nil {
			t.Fatalf("%s evicted, want k1 only", k)
		}
	}
	if got := econ.stats().UsedBytes; got != 3*one {
		t.Fatalf("used after eviction = %d, want %d", got, 3*one)
	}
	st := econ.stats()
	if st.Evictions != 1 || st.EvictedBytes != one {
		t.Fatalf("pressure counters = (%d, %d), want (1, %d)", st.Evictions, st.EvictedBytes, one)
	}

	c.clear()
	if got := econ.stats().UsedBytes; got != 0 {
		t.Fatalf("used after clear = %d, want 0", got)
	}
}

func TestIndexCacheGenerationRules(t *testing.T) {
	one := cacheTestIndex(8).residentBytes()
	econ := newEconomy(10 * one)
	c := newIndexCache(econ)
	econ.register(c)

	c.put("k", 3, cacheTestIndex(8), "t")
	if c.get("k", 2) != nil {
		t.Fatal("newer-gen entry served at an older generation")
	}
	if c.get("k", 3) == nil {
		t.Fatal("mismatched get at an older gen must not delete a newer entry")
	}

	// An older-gen put loses to the resident newer entry.
	c.put("k", 2, cacheTestIndex(8), "t")
	if c.get("k", 3) == nil {
		t.Fatal("older-gen put displaced a newer entry")
	}
	if got := econ.stats().UsedBytes; got != one {
		t.Fatalf("used = %d, want %d (refused put must not leak a charge)", got, one)
	}

	// A newer-gen get deletes the stale entry on sight and releases it.
	if c.get("k", 4) != nil {
		t.Fatal("stale entry served at a newer generation")
	}
	if c.get("k", 3) != nil {
		t.Fatal("stale entry survived delete-on-sight")
	}
	if got := econ.stats().UsedBytes; got != 0 {
		t.Fatalf("used after delete-on-sight = %d, want 0", got)
	}

	// An index larger than the whole budget is refused outright.
	tiny := newEconomy(1)
	tc := newIndexCache(tiny)
	tiny.register(tc)
	if ev := tc.put("k", 1, cacheTestIndex(8), "t"); ev != 0 {
		t.Fatalf("oversized put evicted %d entries", ev)
	}
	if tc.get("k", 1) != nil {
		t.Fatal("oversized index was cached")
	}
}

// BenchmarkIndexCachePut drives the cache at a budget that forces one
// eviction per insert — the regime where the old linear min-scan cost
// O(entries) per put and the intrusive LRU costs O(1).
func BenchmarkIndexCachePut(b *testing.B) {
	for _, resident := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			ix := cacheTestIndex(8)
			one := ix.residentBytes()
			econ := newEconomy(int64(resident) * one)
			c := newIndexCache(econ)
			econ.register(c)
			keys := make([]string, resident+b.N)
			for i := range keys {
				keys[i] = fmt.Sprintf("c%07d", i)
			}
			for i := 0; i < resident; i++ {
				c.put(keys[i], 1, ix, "t")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.put(keys[resident+i], 1, ix, "t")
			}
		})
	}
}
