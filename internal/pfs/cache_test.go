package pfs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
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

// queuedKeys lists the keys q holds, front first.
func queuedKeys(q *blockQueue) []blockKey {
	var keys []blockKey
	for i, ch := range q.chunks {
		if i == 0 {
			ch = ch[q.head:]
		}
		keys = append(keys, ch...)
	}
	return keys
}

// checkQueue reports how q's chunks break its layout: the front chunk
// has keys left past head, every chunk but the last is full, chunk
// capacities lie in [minChunk, maxChunk], n counts the keys, and every
// spare chunk is empty.
func checkQueue(q *blockQueue) error {
	if len(q.chunks) > 0 && q.head >= len(q.chunks[0]) || len(q.chunks) == 0 && q.head != 0 {
		return fmt.Errorf("head %d past the front chunk of %d chunks", q.head, len(q.chunks))
	}
	for i, ch := range q.chunks {
		if i < len(q.chunks)-1 && len(ch) != cap(ch) {
			return fmt.Errorf("chunk %d of %d holds %d of %d keys", i, len(q.chunks), len(ch), cap(ch))
		}
		if cap(ch) < minChunk || cap(ch) > maxChunk {
			return fmt.Errorf("chunk %d has capacity %d", i, cap(ch))
		}
	}
	if n := len(queuedKeys(q)); n != q.n {
		return fmt.Errorf("queue counts %d keys, holds %d", q.n, n)
	}
	for i, ch := range q.spare {
		if len(ch) != 0 {
			return fmt.Errorf("spare chunk %d holds %d keys", i, len(ch))
		}
	}
	return nil
}

// checkLayout reports how the cache's bitsets disagree with its
// accounting: each set's count is its population, used is the blocks
// present, and every present block is still queued for eviction.
func checkLayout(c *cache) error {
	if err := checkQueue(&c.fifo); err != nil {
		return err
	}
	queued := map[blockKey]bool{}
	for _, k := range queuedKeys(&c.fifo) {
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

// matchesRef reports how c differs from the reference model: its
// layout, its bytes used, and its eviction queue, key for key.
func matchesRef(c *cache, ref *refCache) error {
	if err := checkLayout(c); err != nil {
		return err
	}
	if c.used != ref.used {
		return fmt.Errorf("used %d, reference %d", c.used, ref.used)
	}
	if q := queuedKeys(&c.fifo); !slices.Equal(q, ref.fifo) {
		return fmt.Errorf("queue of %d keys differs from the reference's %d", len(q), len(ref.fifo))
	}
	return nil
}

// checkOracle runs steps random inserts, lookups, drops (a dropped
// object is often re-inserted) and resets of byte ranges in [0, span)
// of up to maxLen bytes on a cache of capacity bytes, in blocks of a
// random size, and on the reference model, and reports the first step
// at which they disagree.
func checkOracle(seed int64, blockSel uint8, capacity int64, span, maxLen, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	block := int64(blockSel%4) + 1
	c := newCache(capacity, block)
	ref := &refCache{capacity: capacity, block: block, present: map[blockKey]bool{}}
	kept := 0 // chunks made so far, queued or spare
	for k := 0; k < steps; k++ {
		obj := uint64(rng.Intn(3) + 1)
		off := int64(rng.Intn(span))
		n := int64(rng.Intn(maxLen) + 1)
		switch op := rng.Intn(20); {
		case op < 9:
			c.insert(obj, off, n)
			ref.insert(obj, off, n)
		case op < 18:
			if got, want := c.hitBytes(obj, off, n), ref.hitBytes(obj, off, n); got != want {
				return fmt.Errorf("step %d: hitBytes(%d, %d, %d) = %d, reference %d", k, obj, off, n, got, want)
			}
		case op == 18:
			c.drop(obj)
			ref.drop(obj)
		default:
			c.reset()
			ref = &refCache{capacity: capacity, block: block, present: map[blockKey]bool{}}
		}
		if err := matchesRef(c, ref); err != nil {
			return fmt.Errorf("step %d: %v", k, err)
		}
		// Eviction and reset keep every chunk they drain as a spare.
		made := len(c.fifo.chunks) + len(c.fifo.spare)
		if made < kept {
			return fmt.Errorf("step %d: %d chunks kept, %d made before", k, made, kept)
		}
		kept = made
	}
	return nil
}

// Property: over random operations the cache answers every lookup as
// the reference model does, evicts in its order, its layout stays
// consistent, and its queue loses no chunk it has made.  The second
// run's queue spans 3,000 to 12,000 blocks in chunks up to the largest,
// so evictions, drops and resets cross chunk boundaries and refill spare
// chunks.
func TestCacheMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		capacity                int64
		span, maxLen, steps, nr int
	}{
		{"small", 200, 300, 80, 300, 100},
		{"chunked", 12000, 18000, 4800, 80, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64, blockSel uint8) bool {
				err := checkOracle(seed, blockSel, tc.capacity, tc.span, tc.maxLen, tc.steps)
				if err != nil {
					t.Log(err)
				}
				return err == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: tc.nr}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCacheQueueAllocs: a fresh eviction queue of N keys costs about N
// blockKeys plus one chunk, since chunks never move, and a cache reset
// and refilled to its earlier size takes every chunk from the spares,
// so it allocates nothing.  Counted without the race detector.
func TestCacheQueueAllocs(t *testing.T) {
	const blocks = 1 << 16 // Cielo's server cache in 64 KiB blocks
	var q blockQueue
	bytes := steadyBytes(0, 1, func(int) {
		for i := range blocks {
			q.push(blockKey{1, int64(i)})
		}
	})
	// The slack covers the chunk headers and size-class rounding.
	keySize := float64(unsafe.Sizeof(blockKey{}))
	if limit := (blocks+maxChunk)*keySize + 8<<10; bytes > limit && !raceEnabled {
		t.Errorf("queue of %d keys: %.0f bytes, want at most %.0f", blocks, bytes, limit)
	}
	t.Logf("queue of %d keys: %.0f bytes (%.3f of the keys' size)", blocks, bytes, bytes/(blocks*keySize))

	const objs = 16
	fill := func(c *cache) {
		for off := int64(0); off < blocks/objs; off += 64 {
			for obj := uint64(1); obj <= objs; obj++ {
				c.insert(obj, off, 64)
			}
		}
	}
	c := newCache(blocks, 1)
	fill(c)
	if err := checkLayout(c); err != nil || c.fifo.n != blocks {
		t.Fatalf("filled cache: %v, %d keys queued", err, c.fifo.n)
	}
	allocs := testing.AllocsPerRun(5, func() {
		c.reset()
		fill(c)
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("reset and refill: %.1f allocations, want 0", allocs)
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
