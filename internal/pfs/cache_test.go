package pfs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := newCache(1000, 1)
	if c.hitBytes(1, 0, 100) != 0 {
		t.Fatal("empty cache hit")
	}
	c.insert(1, 0, 100)
	if got := c.hitBytes(1, 0, 100); got != 100 {
		t.Fatalf("hit = %d, want 100", got)
	}
	if got := c.hitBytes(1, 50, 100); got != 50 {
		t.Fatalf("partial hit = %d, want 50", got)
	}
	if c.hitBytes(2, 0, 100) != 0 {
		t.Fatal("wrong-object hit")
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(100, 1)
	c.insert(1, 0, 60)
	c.insert(2, 0, 60) // evicts obj 1's extent
	if c.used > 100 {
		t.Fatalf("used = %d over capacity", c.used)
	}
	if got := c.hitBytes(2, 0, 60); got != 60 {
		t.Fatalf("recent insert evicted: hit = %d", got)
	}
	// Block-granular FIFO eviction trims exactly back to capacity: the
	// oldest 20 bytes of obj 1 are gone, the rest survive.
	if got := c.hitBytes(1, 0, 60); got != 40 {
		t.Fatalf("oldest blocks not evicted: hit = %d, want 40", got)
	}
	if got := c.hitBytes(1, 20, 40); got != 40 {
		t.Fatalf("surviving tail wrong: hit = %d, want 40", got)
	}
}

func TestCacheOversizedInsertKeepsTail(t *testing.T) {
	c := newCache(100, 1)
	c.insert(1, 0, 1000)
	if c.used > 100 {
		t.Fatalf("used = %d", c.used)
	}
	// Only the tail of the stream fits.
	if got := c.hitBytes(1, 900, 100); got != 100 {
		t.Fatalf("tail hit = %d, want 100", got)
	}
}

func TestCacheZeroCapacityDisabled(t *testing.T) {
	c := newCache(0, 1)
	c.insert(1, 0, 10)
	if c.hitBytes(1, 0, 10) != 0 {
		t.Fatal("zero-capacity cache stored data")
	}
}

func TestCacheDrop(t *testing.T) {
	c := newCache(1000, 1)
	c.insert(1, 0, 100)
	c.insert(2, 0, 100)
	c.drop(1)
	if c.hitBytes(1, 0, 100) != 0 {
		t.Fatal("dropped object still cached")
	}
	if c.hitBytes(2, 0, 100) != 100 {
		t.Fatal("drop removed wrong object")
	}
	if c.used != 100 {
		t.Fatalf("used = %d, want 100", c.used)
	}
}

// refCache is the cache's reference model: one set of present blocks
// and the FIFO of their insertions, scanned whole by drop.
type refCache struct {
	capacity, block, used int64
	present               map[blockKey]bool
	fifo                  []blockKey
}

func (r *refCache) insert(obj uint64, off, n int64) {
	lo, hi := off/r.block, (off+n-1)/r.block
	lo = max(lo, hi-r.capacity/r.block+1, 0)
	for idx := lo; idx <= hi; idx++ {
		if k := (blockKey{obj, idx}); !r.present[k] {
			r.present[k] = true
			r.fifo = append(r.fifo, k)
			r.used += r.block
		}
	}
	for r.used > r.capacity && len(r.fifo) > 0 {
		k := r.fifo[0]
		r.fifo = r.fifo[1:]
		if r.present[k] {
			delete(r.present, k)
			r.used -= r.block
		}
	}
}

func (r *refCache) hitBytes(obj uint64, off, n int64) int64 {
	var hit int64
	for b := off; b < off+n; b++ {
		if r.present[blockKey{obj, b / r.block}] {
			hit++
		}
	}
	return hit
}

func (r *refCache) drop(obj uint64) {
	for k := range r.present {
		if k.obj == obj {
			delete(r.present, k)
			r.used -= r.block
		}
	}
}

// checkLayout reports how the cache's bitsets disagree with its
// accounting: each set's count is its population, used is the blocks
// present, and every present block is still queued for eviction.
func checkLayout(c *cache) error {
	queued := map[blockKey]bool{}
	for _, k := range c.fifo[c.head:] {
		queued[k] = true
	}
	var blocks int64
	for obj, s := range c.objs {
		n := 0
		for w, word := range s.bits {
			n += bits.OnesCount64(word)
			for b := 0; b < 64; b++ {
				if k := (blockKey{obj, int64(w*64 + b)}); word&(1<<b) != 0 && !queued[k] {
					return fmt.Errorf("block %v present but not queued", k)
				}
			}
		}
		if n != s.n {
			return fmt.Errorf("object %d counts %d blocks, has %d", obj, s.n, n)
		}
		blocks += int64(n)
	}
	if blocks*c.block != c.used || c.used > c.capacity {
		return fmt.Errorf("used %d, %d blocks present, capacity %d", c.used, blocks, c.capacity)
	}
	return nil
}

// Property: over random inserts, lookups, drops (a dropped object is
// often re-inserted) and resets, the cache answers every lookup as the
// reference model does and its layout stays consistent.
func TestCacheMatchesOracle(t *testing.T) {
	f := func(seed int64, blockSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 200
		block := int64(blockSel%4) + 1
		c := newCache(capacity, block)
		ref := &refCache{capacity: capacity, block: block, present: map[blockKey]bool{}}
		for k := 0; k < 300; k++ {
			obj := uint64(rng.Intn(3) + 1)
			off := int64(rng.Intn(300))
			n := int64(rng.Intn(80) + 1)
			switch op := rng.Intn(20); {
			case op < 9:
				c.insert(obj, off, n)
				ref.insert(obj, off, n)
			case op < 18:
				if got, want := c.hitBytes(obj, off, n), ref.hitBytes(obj, off, n); got != want {
					t.Logf("step %d: hitBytes(%d, %d, %d) = %d, reference %d", k, obj, off, n, got, want)
					return false
				}
			case op == 18:
				c.drop(obj)
				ref.drop(obj)
			default:
				c.reset()
				ref = &refCache{capacity: capacity, block: block, present: map[blockKey]bool{}}
			}
			if err := checkLayout(c); err != nil || c.used != ref.used {
				t.Logf("step %d: %v (used %d, reference %d)", k, err, c.used, ref.used)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheDropThenReinsert: a dropped object's queued blocks stay in the
// FIFO; re-inserted, the object is cached afresh and evicts in the order
// the reference model does.
func TestCacheDropThenReinsert(t *testing.T) {
	c := newCache(100, 1)
	c.insert(1, 0, 60)
	c.drop(1)
	if c.used != 0 || c.hitBytes(1, 0, 60) != 0 {
		t.Fatalf("after drop: used %d, hit %d", c.used, c.hitBytes(1, 0, 60))
	}
	c.insert(1, 0, 60)
	if got := c.hitBytes(1, 0, 60); got != 60 || c.used != 60 {
		t.Fatalf("re-inserted object: hit %d, used %d, want 60, 60", got, c.used)
	}
	// The stale queue entries of the first insert come first, so they
	// evict the re-inserted blocks 0..19 to make room for obj 2.
	c.insert(2, 0, 60)
	if got := c.hitBytes(1, 0, 60); got != 40 || c.hitBytes(1, 0, 20) != 0 {
		t.Fatalf("hit %d of obj 1 (first 20: %d), want 40 (0)", got, c.hitBytes(1, 0, 20))
	}
	if err := checkLayout(c); err != nil {
		t.Fatal(err)
	}
}

// TestCacheReset: a reset cache is empty and fills again, within
// capacity, from its kept storage.
func TestCacheReset(t *testing.T) {
	c := newCache(100, 1)
	c.insert(1, 0, 80)
	c.insert(2, 0, 80)
	c.reset()
	if c.used != 0 || c.hitBytes(1, 0, 80)+c.hitBytes(2, 0, 80) != 0 {
		t.Fatalf("after reset: used %d", c.used)
	}
	c.insert(2, 0, 80)
	c.insert(1, 50, 40)
	if got := c.hitBytes(2, 0, 80) + c.hitBytes(1, 0, 90); got != 100 {
		t.Fatalf("refilled cache holds %d bytes, want 100", got)
	}
	if err := checkLayout(c); err != nil {
		t.Fatal(err)
	}
}

func TestOSTSharesConservation(t *testing.T) {
	f := func(off, n uint32, stripeSel, groupSel uint8) bool {
		stripe := int64(1) << (10 + stripeSel%8) // 1K..128K
		groups := int(groupSel%16) + 1
		o, sz := int64(off), int64(n%10_000_000)+1
		shares := make([]int64, groups)
		ostShares(shares, uint64(off)*7, o, sz, stripe)
		var sum int64
		for _, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == sz && len(shares) == groups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOSTSharesSmallTransferSingleGroup(t *testing.T) {
	shares := make([]int64, 8)
	ostShares(shares, 3, 0, 100, 64<<10)
	nonzero := 0
	for _, s := range shares {
		if s > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("small transfer touched %d groups", nonzero)
	}
}
