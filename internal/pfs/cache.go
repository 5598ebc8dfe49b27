package pfs

// cache is a block-granular cache over (object, byte-range) extents with
// FIFO eviction.  It models both the per-node client cache (the page/
// DirectFlow cache that lets a process re-read recently written data at
// memory speed — the effect the paper credits for measured read bandwidth
// exceeding the storage network's peak at 1024 streams) and the shared
// storage-server cache.
//
// Presence is tracked per fixed-size block, in one bitset per object, so
// inserts and lookups are O(blocks touched) regardless of how fragmented
// the access pattern is — a strided checkpoint inserting half a million
// extents stays O(1) per operation — and dropping an object is O(1).  A
// partially-written block counts as present (the usual page-cache
// rounding).  A queued block that is no longer present (its object was
// dropped) is skipped when eviction reaches it.
type cache struct {
	capacity int64
	block    int64
	used     int64
	objs     map[uint64]*blockSet
	fifo     blockQueue
}

type blockKey struct {
	obj uint64
	idx int64
}

// blockSet is one object's cached blocks: bit idx of bits is block idx.
type blockSet struct {
	bits []uint64
	n    int // blocks present
}

func (s *blockSet) has(idx int64) bool {
	w := uint64(idx) / 64
	return w < uint64(len(s.bits)) && s.bits[w]&(1<<(idx%64)) != 0
}

func newCache(capacity, block int64) *cache {
	if block <= 0 {
		block = 64 << 10
	}
	return &cache{capacity: capacity, block: block, objs: map[uint64]*blockSet{}}
}

// reset empties the cache, keeping its storage for reuse.
func (c *cache) reset() {
	for _, s := range c.objs {
		clear(s.bits)
		s.n = 0
	}
	c.used = 0
	c.fifo.reset()
}

// insert records [off, off+n) of obj as cached, evicting the oldest
// blocks to stay under capacity.  A zero-capacity cache ignores inserts.
func (c *cache) insert(obj uint64, off, n int64) {
	if c.capacity <= 0 || n <= 0 {
		return
	}
	lo := off / c.block
	hi := (off + n - 1) / c.block
	// Oversized inserts keep only the tail that fits.
	if total := (hi - lo + 1) * c.block; total > c.capacity {
		lo = hi - c.capacity/c.block + 1
	}
	lo = max(lo, 0)
	s := c.objs[obj]
	if s == nil {
		s = &blockSet{}
		c.objs[obj] = s
	}
	if w := int(hi/64) + 1; w > len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w-len(s.bits))...)
	}
	for idx := lo; idx <= hi; idx++ {
		if s.has(idx) {
			continue
		}
		s.bits[idx/64] |= 1 << (idx % 64)
		s.n++
		c.fifo.push(blockKey{obj, idx})
		c.used += c.block
	}
	for c.used > c.capacity && c.fifo.n > 0 {
		k := c.fifo.pop()
		if s := c.objs[k.obj]; s != nil && s.has(k.idx) {
			s.bits[k.idx/64] &^= 1 << (k.idx % 64)
			s.n--
			c.used -= c.block
		}
	}
}

// hitBytes returns how many bytes of [off, off+n) of obj are cached.
func (c *cache) hitBytes(obj uint64, off, n int64) int64 {
	s := c.objs[obj]
	if c.capacity <= 0 || n <= 0 || s == nil || s.n == 0 {
		return 0
	}
	var hit int64
	end := off + n
	for idx := off / c.block; idx*c.block < end; idx++ {
		if !s.has(idx) {
			continue
		}
		blo, bhi := idx*c.block, (idx+1)*c.block
		if blo < off {
			blo = off
		}
		if bhi > end {
			bhi = end
		}
		hit += bhi - blo
	}
	return hit
}

// drop forgets every cached block of obj (e.g. after a remove).
func (c *cache) drop(obj uint64) {
	if s := c.objs[obj]; s != nil {
		c.used -= int64(s.n) * c.block
		delete(c.objs, obj)
	}
}

// Chunk sizes of a blockQueue: its first chunk holds minChunk keys, and
// each new chunk grows the queue by half, up to maxChunk keys.
const (
	minChunk = 16
	maxChunk = 1024
)

// blockQueue is a cache's eviction order: block keys, oldest first, in
// chunks of fixed capacity that never move once made, so the queue
// allocates about its largest size once.
// A drained chunk goes to a spare list, and a new chunk is taken from it
// before one is made: a cache that cycles through evictions, or is reset
// (DropCaches) and refilled, reuses its storage.
type blockQueue struct {
	chunks [][]blockKey // chunks[0][head:] is the front
	head   int
	n      int          // keys queued
	spare  [][]blockKey // drained chunks, each emptied
}

// push queues k at the back.
func (q *blockQueue) push(k blockKey) {
	last := len(q.chunks) - 1
	if last < 0 || len(q.chunks[last]) == cap(q.chunks[last]) {
		q.chunks = append(q.chunks, q.chunk())
		last++
	}
	q.chunks[last] = append(q.chunks[last], k)
	q.n++
}

// chunk returns an empty chunk: a spare one if any is left, else a new
// one half as large as the queue, within [minChunk, maxChunk].
func (q *blockQueue) chunk() []blockKey {
	if i := len(q.spare) - 1; i >= 0 {
		c := q.spare[i]
		q.spare = q.spare[:i]
		return c
	}
	return make([]blockKey, 0, min(max(q.n/2, minChunk), maxChunk))
}

// pop removes and returns the key at the front; the queue must not be
// empty.  A chunk it drains becomes a spare.
func (q *blockQueue) pop() blockKey {
	front := q.chunks[0]
	k := front[q.head]
	q.head++
	q.n--
	if q.head == len(front) {
		q.spare = append(q.spare, front[:0])
		n := copy(q.chunks, q.chunks[1:])
		q.chunks[n] = nil
		q.chunks, q.head = q.chunks[:n], 0
	}
	return k
}

// reset empties the queue, keeping every chunk as a spare.
func (q *blockQueue) reset() {
	for _, c := range q.chunks {
		q.spare = append(q.spare, c[:0])
	}
	clear(q.chunks)
	q.chunks, q.head, q.n = q.chunks[:0], 0, 0
}
