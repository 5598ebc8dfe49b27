package plfs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"plfs/internal/payload"
)

// Entry is one index record: "process wrote Length bytes that logically
// belong at LogicalOff; they physically live at PhysOff of dropping
// Dropping; resolved against other writes by Timestamp".
type Entry struct {
	// LogicalOff is the write's offset in the logical file.
	LogicalOff int64
	// Length is the write's byte count.
	Length int64
	// PhysOff is the offset within the data dropping.
	PhysOff int64
	// Timestamp orders overlapping writes (last writer wins).
	Timestamp int64
	// Dropping is an id into the container's canonical dropping order.
	Dropping int32
	// Rank is the writing process, the deterministic timestamp tiebreak.
	Rank int32
}

// EntryBytes is the serialized size of one Entry.
const EntryBytes = 40

// seqOf produces the resolution sequence for last-writer-wins: timestamp
// first, rank as the deterministic tiebreak (the paper's note 1: clocks
// are synchronized and checkpoints don't overwrite in practice, but the
// simulator produces exact ties).
func seqOf(e Entry) uint64 {
	return uint64(e.Timestamp)<<16 | uint64(uint16(e.Rank))
}

// putEntry serializes e into b[:EntryBytes], little-endian.
func putEntry(b []byte, e Entry) {
	binary.LittleEndian.PutUint64(b[0:], uint64(e.LogicalOff))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.Length))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.PhysOff))
	binary.LittleEndian.PutUint64(b[24:], uint64(e.Timestamp))
	binary.LittleEndian.PutUint32(b[32:], uint32(e.Dropping))
	binary.LittleEndian.PutUint32(b[36:], uint32(e.Rank))
}

// putEntries serializes entries back to back into b, which must hold
// EntryBytes for each.
func putEntries(b []byte, entries []Entry) {
	for i, e := range entries {
		putEntry(b[i*EntryBytes:], e)
	}
}

// encodeEntries serializes entries (little-endian, EntryBytes each).
func encodeEntries(entries []Entry) []byte {
	buf := make([]byte, len(entries)*EntryBytes)
	putEntries(buf, entries)
	return buf
}

// decodeEntries parses an index dropping's bytes.  The dropping id of
// every decoded entry is rewritten to droppingID: ids are a property of
// the reader's canonical dropping ordering, not of the writer.
func decodeEntries(data []byte, droppingID int32) ([]Entry, error) {
	if len(data)%EntryBytes != 0 {
		return nil, fmt.Errorf("plfs: corrupt index: %d bytes is not a multiple of %d", len(data), EntryBytes)
	}
	out := make([]Entry, len(data)/EntryBytes)
	for i := range out {
		b := data[i*EntryBytes:]
		out[i] = Entry{
			LogicalOff: int64(binary.LittleEndian.Uint64(b[0:])),
			Length:     int64(binary.LittleEndian.Uint64(b[8:])),
			PhysOff:    int64(binary.LittleEndian.Uint64(b[16:])),
			Timestamp:  int64(binary.LittleEndian.Uint64(b[24:])),
			Dropping:   droppingID,
			Rank:       int32(binary.LittleEndian.Uint32(b[36:])),
		}
	}
	return out, nil
}

// Rec is one index record in run-compressed form.  Count <= 1 makes it a
// plain Entry.  Count >= 2 makes it an arithmetic run: Count writes of
// Length bytes each, the k-th at logical LogicalOff+k*Stride and physical
// PhysOff+k*Length (sequential appends), all by Rank.  Every element
// shares the run's first Timestamp; run detection requires monotone
// nondecreasing timestamps within the run, so this quantization can only
// reorder writes inside one writer's run window — the paper's note that
// checkpoints don't overwrite in practice (see DESIGN.md §12).
type Rec struct {
	Entry
	Count  int32
	Stride int64
}

// recsOf wraps raw entries as single-element records.
func recsOf(entries []Entry) []Rec {
	out := make([]Rec, len(entries))
	for i, e := range entries {
		out[i] = Rec{Entry: e, Count: 1}
	}
	return out
}

// expandedCount returns the raw-entry count a record list represents.
func expandedCount(recs []Rec) int {
	n := 0
	for _, r := range recs {
		if r.Count <= 1 {
			n++
		} else {
			n += int(r.Count)
		}
	}
	return n
}

// expandRecs expands records to raw entries (runs into their elements).
func expandRecs(recs []Rec) []Entry {
	out := make([]Entry, 0, expandedCount(recs))
	for _, r := range recs {
		if r.Count <= 1 {
			out = append(out, r.Entry)
			continue
		}
		e := r.Entry
		for k := int32(0); k < r.Count; k++ {
			out = append(out, e)
			e.LogicalOff += r.Stride
			e.PhysOff += r.Length
		}
	}
	return out
}

// compressRecs detects arithmetic runs in one writer's entries (in write
// order): equal Length and Rank, physical offsets advancing by exactly
// Length, logical offsets advancing by a constant stride >= Length (so
// run elements are disjoint), timestamps monotone nondecreasing.  Runs of
// at least two entries become one Rec; everything else passes through.
func compressRecs(entries []Entry) []Rec {
	// Count first, so the records are allocated once at their exact size.
	n := 0
	for i := 0; i < len(entries); n++ {
		i, _ = runEnd(entries, i)
	}
	recs := make([]Rec, 0, n)
	for i := 0; i < len(entries); {
		j, stride := runEnd(entries, i)
		recs = append(recs, Rec{Entry: entries[i], Count: int32(j - i), Stride: stride})
		i = j
	}
	return recs
}

// runEnd returns where the record that starts at entries[i] ends — i+1
// unless entries[i:j] form a run — and the run's stride (0 for a single).
func runEnd(entries []Entry, i int) (j int, stride int64) {
	e := entries[i]
	j = i + 1
	for e.Length > 0 && j < len(entries) {
		p, c := entries[j-1], entries[j]
		if c.Length != e.Length || c.Rank != e.Rank || c.Dropping != e.Dropping ||
			c.PhysOff != p.PhysOff+e.Length || c.Timestamp < p.Timestamp {
			break
		}
		s := c.LogicalOff - p.LogicalOff
		if s < e.Length {
			break
		}
		if j == i+1 {
			stride = s
		} else if s != stride {
			break
		}
		j++
	}
	return j, stride
}

// v2 record framing.  An index dropping is either v1 — raw entries,
// EntryBytes each, byte-identical to the legacy format — or v2:
//
//	[ uint64 magic "PLFS_IX2" ][ uint32 nrecs ][ records ]
//
// where each record is a tag byte (1 = entry, 2 = run) followed by an
// EntryBytes entry, and tag-2 records append [uint32 count][int64 stride].
// The global index has the same two generations ("PLFS_GX2" for v2) with
// the dropping-path header in front of the record section.  Encoders emit
// v1 whenever every record is a single, so compression-off output stays
// byte-identical to the legacy format and the simulator models the same
// volumes.
const (
	ixV2Magic   = uint64(0x504c46535f495832) // "PLFS_IX2"
	gidxV2Magic = uint64(0x504c46535f475832) // "PLFS_GX2"
	recHdrLen   = 12                         // magic + record count
	recRunExtra = 12                         // count + stride
)

// allSingles reports whether no record is a run.
func allSingles(recs []Rec) bool {
	for _, r := range recs {
		if r.Count > 1 {
			return false
		}
	}
	return true
}

// recsWireLen returns exactly how many bytes encodeRecs(recs) produces —
// the figure the simulator charges for index transport.
func recsWireLen(recs []Rec) int64 {
	if allSingles(recs) {
		return int64(len(recs)) * EntryBytes
	}
	n := int64(recHdrLen)
	for _, r := range recs {
		n += 1 + EntryBytes
		if r.Count > 1 {
			n += recRunExtra
		}
	}
	return n
}

func appendEntry(buf []byte, e Entry) []byte {
	var b [EntryBytes]byte
	putEntry(b[:], e)
	return append(buf, b[:]...)
}

func getEntry(b []byte) Entry {
	return Entry{
		LogicalOff: int64(binary.LittleEndian.Uint64(b[0:])),
		Length:     int64(binary.LittleEndian.Uint64(b[8:])),
		PhysOff:    int64(binary.LittleEndian.Uint64(b[16:])),
		Timestamp:  int64(binary.LittleEndian.Uint64(b[24:])),
		Dropping:   int32(binary.LittleEndian.Uint32(b[32:])),
		Rank:       int32(binary.LittleEndian.Uint32(b[36:])),
	}
}

// appendRecList serializes the v2 record section (no header).
func appendRecList(buf []byte, recs []Rec) []byte {
	var tmp [recRunExtra]byte
	for _, r := range recs {
		if r.Count <= 1 {
			buf = append(buf, 1)
			buf = appendEntry(buf, r.Entry)
			continue
		}
		buf = append(buf, 2)
		buf = appendEntry(buf, r.Entry)
		binary.LittleEndian.PutUint32(tmp[0:], uint32(r.Count))
		binary.LittleEndian.PutUint64(tmp[4:], uint64(r.Stride))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// decodeRecList parses n records from data, requiring exact consumption.
func decodeRecList(data []byte, n int) ([]Rec, error) {
	bad := fmt.Errorf("plfs: corrupt v2 index records")
	out := make([]Rec, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 1+EntryBytes {
			return nil, bad
		}
		tag := data[0]
		e := getEntry(data[1:])
		data = data[1+EntryBytes:]
		switch tag {
		case 1:
			out = append(out, Rec{Entry: e, Count: 1})
		case 2:
			if len(data) < recRunExtra {
				return nil, bad
			}
			cnt := int32(binary.LittleEndian.Uint32(data[0:]))
			stride := int64(binary.LittleEndian.Uint64(data[4:]))
			data = data[recRunExtra:]
			// Run sanity: counts and strides that could overflow the
			// expansion arithmetic (or describe overlapping elements) are
			// corruption, not data.
			if cnt < 2 || cnt > 1<<30 || e.Length < 0 || e.LogicalOff < 0 ||
				stride < e.Length || (stride > 0 && int64(cnt) > (1<<62)/stride) {
				return nil, bad
			}
			out = append(out, Rec{Entry: e, Count: cnt, Stride: stride})
		default:
			return nil, bad
		}
	}
	if len(data) != 0 {
		return nil, bad
	}
	return out, nil
}

// encodeRecs serializes an index dropping's records: legacy v1 bytes when
// every record is a single, the v2 framing otherwise.
func encodeRecs(recs []Rec) []byte {
	if allSingles(recs) {
		buf := make([]byte, len(recs)*EntryBytes)
		for i, r := range recs {
			putEntry(buf[i*EntryBytes:], r.Entry)
		}
		return buf
	}
	buf := make([]byte, 0, recsWireLen(recs))
	var tmp [recHdrLen]byte
	binary.LittleEndian.PutUint64(tmp[0:], ixV2Magic)
	binary.LittleEndian.PutUint32(tmp[8:], uint32(len(recs)))
	buf = append(buf, tmp[:]...)
	return appendRecList(buf, recs)
}

// decodeRecs parses an index dropping in either generation, rewriting
// dropping ids to droppingID (ids belong to the reader's canonical
// ordering, as in decodeEntries).
func decodeRecs(data []byte, droppingID int32) ([]Rec, error) {
	if len(data) >= recHdrLen && binary.LittleEndian.Uint64(data) == ixV2Magic {
		nr := uint64(binary.LittleEndian.Uint32(data[8:]))
		rest := data[recHdrLen:]
		// Bound before allocating: the smallest record is 1+EntryBytes.
		if nr > uint64(len(rest))/(1+EntryBytes) {
			return nil, fmt.Errorf("plfs: corrupt v2 index dropping (%d records in %d bytes)", nr, len(data))
		}
		recs, err := decodeRecList(rest, int(nr))
		if err != nil {
			return nil, err
		}
		for i := range recs {
			recs[i].Dropping = droppingID
		}
		return recs, nil
	}
	entries, err := decodeEntries(data, droppingID)
	if err != nil {
		return nil, err
	}
	return recsOf(entries), nil
}

// Index is a resolved global offset map: a sorted, disjoint cover of the
// logical file mapping every byte to (dropping, physical offset).
//
// The representation is columnar (structure of arrays) with two parts:
// an irregular segment table, sorted by logical offset, and an optional
// run table holding same-stride arithmetic runs that survived resolution
// intact.  A K-element run costs one row instead of K segment rows, and
// Lookup expands run elements lazily, so strided checkpoints stay O(runs)
// resident instead of O(writes).
type Index struct {
	// Segment table: disjoint resolved extents sorted by segLog.
	segLog, segLen, segPhys []int64
	segDrop, segRank        []int32

	// Run table: every run shares stride runStride (0 = no run table) and
	// is keyed by its phase — LogicalOff mod runStride — with phase
	// intervals [runPhase[j], runPhase[j]+runLen[j]) sorted and pairwise
	// disjoint, so at most one run covers any logical position.  Run j's
	// k-th element spans [runLog[j]+k*S, +runLen[j]) at physical
	// runPhys[j]+k*runLen[j].  Runs never overlap the segment table
	// (buildRunTable falls back to full expansion otherwise).
	runStride                         int64
	runPhase, runLog, runLen, runPhys []int64
	runCount                          []int32
	runDrop, runRank                  []int32
	runMin, runMax                    int64 // logical bounds of run coverage

	droppings []string // dropping data-file paths, indexed by Entry.Dropping
	rawCount  int      // total raw entries aggregated (cost accounting)
	size      int64    // logical file size
}

// BuildIndexRecs resolves run-compressed record shards (one per index
// dropping, any order) into a global index; droppings maps dropping ids to
// data-file paths.  Every byte goes to the write with the highest
// (Timestamp, Rank), and between exact ties to the one later in flattened
// shard order.  When every run shares one stride and nothing overlaps a
// run, the runs go into the run table as they are and only the singles are
// resolved; with any irregularity (mixed strides, overlapping runs, runs
// colliding with singles) every element of every run is resolved as a
// write of its own.
//
// There is one build (DESIGN.md §7): each shard's records are keyed and the
// keys sorted, on up to workers goroutines; the shards' key lists are k-way
// merged; and records are resolved as they leave the merge.
func BuildIndexRecs(shards [][]Rec, droppings []string, workers int) *Index {
	ix := &Index{droppings: droppings}
	if ix.setRunTable(shards) {
		ix.buildSegments(shards, workers, false)
		if !ix.segmentsHitRuns() {
			return ix
		}
		ix = &Index{droppings: droppings}
	}
	ix.buildSegments(shards, workers, true)
	return ix
}

// recKey stands for one write in the build's sort and merge: a single
// record, or element elem of a run.  Only these 16-byte keys are permuted;
// the records stay where they were decoded, so (idx, elem) still tells
// which of two writes of a shard comes later in flattened order.
type recKey struct {
	off       int64 // the write's logical offset
	idx, elem int32 // the record's position in its shard; the element
}

// shardKeys is what the build holds of one shard.
type shardKeys struct {
	keys []recKey // the non-empty writes, ascending by off
	// first[i] is how many raw entries the records before record i stand
	// for; nil for a shard without runs, where that is i.
	first []int32
	raw   int // raw entries the shard stands for
}

// keyShard makes a shard's keys: of its singles, and with expand of every
// run element as well.  Keys that do not come out ascending are sorted;
// those of a strided, sequential or flattened shard do, and are not.
func keyShard(sh []Rec, expand bool) shardKeys {
	var sk shardKeys
	n, hasRun := 0, false
	for i := range sh {
		r := &sh[i]
		c := 1
		if r.Count > 1 {
			c, hasRun = int(r.Count), true
		}
		sk.raw += c
		if r.Length > 0 && (c == 1 || expand) {
			n += c
		}
	}
	if n == 0 {
		return sk
	}
	if hasRun {
		sk.first = make([]int32, len(sh))
	}
	sk.keys = make([]recKey, 0, n)
	ascending := true
	var pos int32
	for i := range sh {
		r := &sh[i]
		c := max(r.Count, 1)
		if hasRun {
			sk.first[i] = pos
			pos += c
		}
		if r.Length <= 0 || (c > 1 && !expand) {
			continue
		}
		off := r.LogicalOff
		for e := int32(0); e < c; e++ {
			if n := len(sk.keys); n > 0 && off < sk.keys[n-1].off {
				ascending = false
			}
			sk.keys = append(sk.keys, recKey{off: off, idx: int32(i), elem: e})
			off += r.Stride
		}
	}
	if !ascending {
		sortKeys(sk.keys)
	}
	return sk
}

// sortKeys sorts ks by off: a least-significant-digit radix sort, eight
// bits a pass, over the bits in which the offsets differ — 64 MiB of
// 1 KiB writes is three passes that move keys, against fifteen rounds of
// compares.  It is stable, so writes at one offset stay in shard order.
func sortKeys(ks []recKey) {
	lo, hi := ks[0].off, ks[0].off
	for _, k := range ks {
		lo, hi = min(lo, k.off), max(hi, k.off)
	}
	src, dst := ks, make([]recKey, len(ks))
	for shift := 0; uint64(hi-lo)>>shift != 0; shift += 8 {
		var next [256]int // next[d]: where the next key with digit d goes
		for _, k := range src {
			next[uint8(uint64(k.off-lo)>>shift)]++
		}
		if next[uint8(uint64(src[0].off-lo)>>shift)] == len(src) {
			continue // one digit throughout: nothing to move
		}
		at := 0
		for d, n := range next {
			next[d], at = at, at+n
		}
		for _, k := range src {
			d := uint8(uint64(k.off-lo) >> shift)
			dst[next[d]] = k
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// cursor is one shard's place in the merge: pos indexes the shard's keys
// and off caches that key's offset, the heap order.
type cursor struct {
	off        int64
	shard, pos int32
}

// down restores the min-heap on off after h[i] grew.  The heap holds
// values and is sifted here (as sim's event queue is), so advancing a
// shard costs O(log shards) compares and no allocation.
func down(h []cursor, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].off < h[c].off {
			c++
		}
		if h[i].off <= h[c].off {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// parallelBuildMin is the record count below which shards are keyed on the
// caller's goroutine: starting and joining workers costs tens of
// microseconds, more than keying a few thousand records does (a streaming
// checkpoint's index is one run record per rank).
const parallelBuildMin = 4096

// buildSegments fills the segment table: it keys each shard (one
// parallelFor task per shard), k-way merges the shards' keys, and resolves
// the writes as they arrive in logical-offset order.  It also counts the
// raw entries.
func (ix *Index) buildSegments(shards [][]Rec, workers int, expand bool) {
	records := 0
	for _, sh := range shards {
		records += len(sh)
	}
	if records < parallelBuildMin {
		workers = 1
	}
	sks := make([]shardKeys, len(shards))
	parallelFor(workers, len(shards), func(k int) { sks[k] = keyShard(shards[k], expand) })

	n := 0
	base := make([]int, len(shards)+1)
	h := make([]cursor, 0, len(shards))
	for k := range sks {
		base[k+1] = base[k] + sks[k].raw
		if ks := sks[k].keys; len(ks) > 0 {
			h = append(h, cursor{off: ks[0].off, shard: int32(k)})
			n += len(ks)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	ix.rawCount = base[len(shards)]
	ix.segLog = make([]int64, 0, n)
	ix.segLen = make([]int64, 0, n)
	ix.segPhys = make([]int64, 0, n)
	ix.segDrop = make([]int32, 0, n)
	ix.segRank = make([]int32, 0, n)
	cl := cluster{ix: ix, shards: shards, sks: sks, base: base}
	for len(h) > 0 {
		c := &h[0]
		ks := sks[c.shard].keys
		cl.add(c.shard, ks[c.pos])
		if c.pos++; int(c.pos) < len(ks) {
			c.off = ks[c.pos].off
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(h, 0)
	}
	cl.flush()
}

// cluster resolves writes while they are merged.  It holds the open
// cluster: a maximal set of writes, consecutive in logical-offset order,
// each starting before the end of one before it.  Nothing outside a cluster
// overlaps it, so clusters resolve independently.  A cluster of one write
// — every write of a checkpoint, whose writes do not overlap — becomes its
// segment as it stands; only a larger one goes through the sweep of
// payload.ResolveSorted, the one last-writer-wins implementation.
type cluster struct {
	ix     *Index
	shards [][]Rec
	sks    []shardKeys
	base   []int // base[k]: raw entries the shards before k stand for

	open      bool
	headShard int32          // the first write's shard
	head      recKey         // and key
	frontier  int64          // the furthest end of the writes
	spans     []payload.Span // all the writes, once there are two
}

// span is a write as the sweep sees it.  Ref is the write's position among
// all raw entries in flattened shard order: the sweep's tiebreak, and the
// way back from a resolved piece to its record.
func (c *cluster) span(shard int32, k recKey) payload.Span {
	r := &c.shards[shard][k.idx]
	ref := c.base[shard] + int(k.elem)
	if first := c.sks[shard].first; first != nil {
		ref += int(first[k.idx])
	} else {
		ref += int(k.idx)
	}
	return payload.Span{Start: k.off, End: k.off + r.Length, Seq: seqOf(r.Entry), Ref: int32(ref)}
}

// add takes the next write in logical-offset order.
func (c *cluster) add(shard int32, k recKey) {
	end := k.off + c.shards[shard][k.idx].Length
	if !c.open || k.off >= c.frontier {
		c.flush()
		c.open, c.headShard, c.head, c.frontier = true, shard, k, end
		return
	}
	if len(c.spans) == 0 {
		c.spans = append(c.spans, c.span(c.headShard, c.head))
	}
	c.spans = append(c.spans, c.span(shard, k))
	if end > c.frontier {
		c.frontier = end
	}
}

// flush writes the open cluster's segments and closes it.
func (c *cluster) flush() {
	if !c.open {
		return
	}
	c.open = false
	ix := c.ix
	if c.frontier > ix.size {
		ix.size = c.frontier
	}
	if len(c.spans) == 0 {
		r := &c.shards[c.headShard][c.head.idx]
		ix.appendSeg(r, c.head, c.head.off, r.Length)
		return
	}
	for _, s := range payload.ResolveSorted(c.spans) {
		// Back from a flattened position to the write: its shard is the
		// last one based at or below it, its record the last one of that
		// shard starting at or below what is left.
		ref := int(s.Ref)
		shard := sort.Search(len(c.base), func(i int) bool { return c.base[i] > ref }) - 1
		pos := int32(ref - c.base[shard])
		k := recKey{idx: pos}
		if first := c.sks[shard].first; first != nil {
			k.idx = int32(sort.Search(len(first), func(i int) bool { return first[i] > pos }) - 1)
			k.elem = pos - first[k.idx]
		}
		r := &c.shards[shard][k.idx]
		k.off = r.LogicalOff + int64(k.elem)*r.Stride
		ix.appendSeg(r, k, s.Start, s.End-s.Start)
	}
	c.spans = c.spans[:0]
}

// appendSeg appends the segment [log, log+n), a part of write k of
// record r.
func (ix *Index) appendSeg(r *Rec, k recKey, log, n int64) {
	ix.segLog = append(ix.segLog, log)
	ix.segLen = append(ix.segLen, n)
	ix.segPhys = append(ix.segPhys, r.PhysOff+int64(k.elem)*r.Length+(log-k.off))
	ix.segDrop = append(ix.segDrop, r.Dropping)
	ix.segRank = append(ix.segRank, r.Rank)
}

// setRunTable fills the run table with the shards' runs and returns true
// (also when there is no run), or returns false — the build then resolves
// the runs element by element — unless every run shares one stride and run
// phase intervals are pairwise disjoint (no run overlaps another).
func (ix *Index) setRunTable(shards [][]Rec) bool {
	var runs []Rec
	for _, sh := range shards {
		for i := range sh {
			r := &sh[i]
			if r.Count <= 1 {
				continue
			}
			runs = append(runs, *r)
			if s := runs[0].Stride; r.Stride != s || s <= 0 || r.Length <= 0 || r.Length > s ||
				r.LogicalOff < 0 || (r.LogicalOff%s)+r.Length > s {
				return false
			}
		}
	}
	if len(runs) == 0 {
		return true
	}
	s := runs[0].Stride
	slices.SortFunc(runs, func(a, b Rec) int { return cmp.Compare(a.LogicalOff%s, b.LogicalOff%s) })
	for i := 1; i < len(runs); i++ {
		if runs[i-1].LogicalOff%s+runs[i-1].Length > runs[i].LogicalOff%s {
			return false
		}
	}

	ix.runStride, ix.runMin = s, int64(1)<<62-1
	ix.runPhase = make([]int64, len(runs))
	ix.runLog = make([]int64, len(runs))
	ix.runLen = make([]int64, len(runs))
	ix.runPhys = make([]int64, len(runs))
	ix.runCount = make([]int32, len(runs))
	ix.runDrop = make([]int32, len(runs))
	ix.runRank = make([]int32, len(runs))
	for j, r := range runs {
		ix.runPhase[j] = r.LogicalOff % s
		ix.runLog[j] = r.LogicalOff
		ix.runLen[j] = r.Length
		ix.runPhys[j] = r.PhysOff
		ix.runCount[j] = r.Count
		ix.runDrop[j] = r.Dropping
		ix.runRank[j] = r.Rank
		if r.LogicalOff < ix.runMin {
			ix.runMin = r.LogicalOff
		}
		end := r.LogicalOff + int64(r.Count-1)*r.Stride + r.Length
		if end > ix.runMax {
			ix.runMax = end
		}
		if end > ix.size {
			ix.size = end
		}
	}
	return true
}

// segmentsHitRuns reports whether a segment overlaps run coverage:
// last-writer-wins resolution would be needed between them.
func (ix *Index) segmentsHitRuns() bool {
	if ix.runStride == 0 {
		return false
	}
	for i := range ix.segLog {
		if _, ok := ix.runNext(ix.segLog[i], ix.segLog[i]+ix.segLen[i]); ok {
			return true
		}
	}
	return false
}

// runNext returns the first run-covered piece at or after cur and before
// end, walking phases within the run period.  The piece's Length runs to
// its element's end; callers clip to their range.  Allocation-free.
func (ix *Index) runNext(cur, end int64) (Piece, bool) {
	if ix.runStride == 0 {
		return Piece{}, false
	}
	if cur < ix.runMin {
		cur = ix.runMin
	}
	if end > ix.runMax {
		end = ix.runMax
	}
	s := ix.runStride
	for cur < end {
		phi := cur % s
		// First run whose phase interval ends past phi.
		lo, hi := 0, len(ix.runPhase)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ix.runPhase[mid]+ix.runLen[mid] > phi {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		j := lo
		if j == len(ix.runPhase) {
			cur += s - phi // no phase left this period
			continue
		}
		if phi < ix.runPhase[j] {
			cur += ix.runPhase[j] - phi
			phi = ix.runPhase[j]
			if cur >= end {
				break
			}
		}
		if cur < ix.runLog[j] {
			cur += ix.runPhase[j] + ix.runLen[j] - phi // run starts in a later period
			continue
		}
		k := (cur - ix.runLog[j]) / s
		if k >= int64(ix.runCount[j]) {
			cur += ix.runPhase[j] + ix.runLen[j] - phi // run ended in an earlier period
			continue
		}
		elem := ix.runLog[j] + k*s
		return Piece{
			Logical:  cur,
			Length:   elem + ix.runLen[j] - cur,
			Dropping: ix.runDrop[j],
			PhysOff:  ix.runPhys[j] + k*ix.runLen[j] + (cur - elem),
			Rank:     ix.runRank[j],
		}, true
	}
	return Piece{}, false
}

// Size returns the logical file size.
func (ix *Index) Size() int64 { return ix.size }

// RawEntries returns how many raw index records were aggregated.
func (ix *Index) RawEntries() int { return ix.rawCount }

// Segments returns the number of resolved segments, counting each run
// element (a run of K writes contributes K segments).
func (ix *Index) Segments() int {
	n := len(ix.segLog)
	for _, c := range ix.runCount {
		n += int(c)
	}
	return n
}

// Runs returns the number of run-table rows (0 when the index is purely
// segment-mapped).
func (ix *Index) Runs() int { return len(ix.runPhase) }

// Droppings returns the dropping data-file paths.
func (ix *Index) Droppings() []string { return ix.droppings }

// residentBytes estimates the in-memory footprint (cache accounting).
func (ix *Index) residentBytes() int64 {
	b := int64(len(ix.segLog))*(3*8+2*4) + int64(len(ix.runPhase))*(4*8+3*4)
	for _, d := range ix.droppings {
		b += int64(len(d)) + 16
	}
	return b + 160
}

// Piece is one contiguous portion of a logical read, mapped to physical
// storage.  A negative Dropping means a hole (read as zeros).
type Piece struct {
	// Logical is the piece's offset in the logical file.
	Logical int64
	// Length is the piece's byte count.
	Length int64
	// Dropping indexes the container's dropping order; negative = hole.
	Dropping int32
	// PhysOff is the offset within that dropping's data file.
	PhysOff int64
	// Rank is the rank whose write this piece resolves to.
	Rank int32
}

// Lookup maps the logical range [off, off+n) to physical pieces, including
// hole pieces for unwritten gaps.
func (ix *Index) Lookup(off, n int64) []Piece {
	return ix.AppendPieces(nil, off, n)
}

// AppendPieces appends the pieces covering [off, off+n) to dst and
// returns it.  The hot read path reuses dst across calls, so a lookup
// whose result fits the buffer performs no allocation; the segment cursor
// and run walk are binary searches over the columnar arrays.
func (ix *Index) AppendPieces(dst []Piece, off, n int64) []Piece {
	if n <= 0 {
		return dst
	}
	end := off + n
	// First segment whose end is past off.  Segments are sorted and
	// disjoint, so that is the last one starting at or before off if it
	// reaches past off, else the one after it: the search probes segLog
	// alone and reads one segLen (hand-rolled: no closure).
	lo, hi := 0, len(ix.segLog)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.segLog[mid] <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	si := lo
	if si > 0 && ix.segLog[si-1]+ix.segLen[si-1] > off {
		si--
	}
	cur := off
	for cur < end {
		segOK := si < len(ix.segLog) && ix.segLog[si] < end
		segStart := cur
		if segOK && ix.segLog[si] > cur {
			segStart = ix.segLog[si]
		}
		rp, runOK := ix.runNext(cur, end)
		switch {
		case runOK && (!segOK || rp.Logical < segStart):
			if rp.Logical > cur {
				dst = append(dst, Piece{Logical: cur, Length: rp.Logical - cur, Dropping: -1})
				cur = rp.Logical
			}
			take := min64(rp.Length, end-cur)
			rp.Length = take
			dst = append(dst, rp)
			cur += take
		case segOK:
			if segStart > cur {
				dst = append(dst, Piece{Logical: cur, Length: segStart - cur, Dropping: -1})
				cur = segStart
			}
			rel := cur - ix.segLog[si]
			take := min64(ix.segLen[si]-rel, end-cur)
			dst = append(dst, Piece{
				Logical: cur, Length: take,
				Dropping: ix.segDrop[si], PhysOff: ix.segPhys[si] + rel, Rank: ix.segRank[si],
			})
			cur += take
			si++
		default:
			dst = append(dst, Piece{Logical: cur, Length: end - cur, Dropping: -1})
			cur = end
		}
	}
	return dst
}

// flattenRecsOf reconstructs record form from a built index (used to
// transport or persist the global index without the original bytes):
// segment rows become singles, run rows become run records.  Resolution
// already happened, so timestamps are zero and nothing overlaps.
func flattenRecsOf(ix *Index) []Rec {
	out := make([]Rec, 0, len(ix.segLog)+len(ix.runPhase))
	for i := range ix.segLog {
		out = append(out, Rec{Entry: Entry{
			LogicalOff: ix.segLog[i], Length: ix.segLen[i], PhysOff: ix.segPhys[i],
			Dropping: ix.segDrop[i], Rank: ix.segRank[i],
		}, Count: 1})
	}
	for j := range ix.runPhase {
		out = append(out, Rec{Entry: Entry{
			LogicalOff: ix.runLog[j], Length: ix.runLen[j], PhysOff: ix.runPhys[j],
			Dropping: ix.runDrop[j], Rank: ix.runRank[j],
		}, Count: ix.runCount[j], Stride: ix.runStride})
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// timeDuration converts an entry count to a time.Duration multiplier.
func timeDuration(n int) time.Duration { return time.Duration(n) }

// encodeGlobalIndex serializes a flattened global index: a header listing
// the canonical dropping data paths, then the entries (whose Dropping ids
// reference the header order).
func encodeGlobalIndex(paths []string, entries []Entry) []byte {
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(paths)))
	buf = append(buf, tmp[:4]...)
	for _, p := range paths {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(p)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, p...)
	}
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(entries)))
	buf = append(buf, tmp[:]...)
	// encodeEntries already serialized the canonical Dropping ids.
	return append(buf, encodeEntries(entries)...)
}

// encodeGlobalIndexRecs serializes a global index in record form: legacy
// v1 bytes when every record is a single, the v2 framing otherwise.
func encodeGlobalIndexRecs(paths []string, recs []Rec) []byte {
	if allSingles(recs) {
		entries := make([]Entry, len(recs))
		for i, r := range recs {
			entries[i] = r.Entry
		}
		return encodeGlobalIndex(paths, entries)
	}
	return encodeGlobalIndexV2(paths, recs)
}

// encodeGlobalIndexV2 always emits the v2 framing:
// [magic][uint32 npaths][paths][uint32 nrecs][records].
func encodeGlobalIndexV2(paths []string, recs []Rec) []byte {
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], gidxV2Magic)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(paths)))
	buf = append(buf, tmp[:4]...)
	for _, p := range paths {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(p)))
		buf = append(buf, tmp[:4]...)
		buf = append(buf, p...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(recs)))
	buf = append(buf, tmp[:4]...)
	return appendRecList(buf, recs)
}

// globalIndexWireLen returns len(encodeGlobalIndexRecs(paths, recs)).
func globalIndexWireLen(paths []string, recs []Rec) int64 {
	var n int64
	if allSingles(recs) {
		n = 4 + 8 + int64(len(recs))*EntryBytes
	} else {
		n = 8 + 4 + 4
		for _, r := range recs {
			n += 1 + EntryBytes
			if r.Count > 1 {
				n += recRunExtra
			}
		}
	}
	for _, p := range paths {
		n += 4 + int64(len(p))
	}
	return n
}

// decodeGlobalIndexRecs parses a global index in either generation.
func decodeGlobalIndexRecs(data []byte) (paths []string, recs []Rec, err error) {
	if len(data) >= 8 && binary.LittleEndian.Uint64(data) == gidxV2Magic {
		bad := fmt.Errorf("plfs: corrupt global index")
		data = data[8:]
		if len(data) < 4 {
			return nil, nil, bad
		}
		np := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		for i := 0; i < np; i++ {
			if len(data) < 4 {
				return nil, nil, bad
			}
			l := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if len(data) < l {
				return nil, nil, bad
			}
			paths = append(paths, string(data[:l]))
			data = data[l:]
		}
		if len(data) < 4 {
			return nil, nil, bad
		}
		nr := uint64(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if nr > uint64(len(data))/(1+EntryBytes) {
			return nil, nil, bad
		}
		recs, err = decodeRecList(data, int(nr))
		if err != nil {
			return nil, nil, err
		}
		return paths, recs, nil
	}
	ps, entries, err := decodeGlobalIndex(data)
	if err != nil {
		return nil, nil, err
	}
	return ps, recsOf(entries), nil
}

// decodeGlobalIndex parses the output of encodeGlobalIndex.
func decodeGlobalIndex(data []byte) (paths []string, entries []Entry, err error) {
	bad := fmt.Errorf("plfs: corrupt global index")
	if len(data) < 4 {
		return nil, nil, bad
	}
	np := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	for i := 0; i < np; i++ {
		if len(data) < 4 {
			return nil, nil, bad
		}
		l := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < l {
			return nil, nil, bad
		}
		paths = append(paths, string(data[:l]))
		data = data[l:]
	}
	if len(data) < 8 {
		return nil, nil, bad
	}
	ne64 := binary.LittleEndian.Uint64(data)
	data = data[8:]
	// Bound before multiplying: a forged count can otherwise overflow
	// ne*EntryBytes into a value that passes the length check and then
	// over-allocates (or panics) in make.
	if ne64 > uint64(len(data))/EntryBytes {
		return nil, nil, bad
	}
	ne := int(ne64)
	if len(data) != ne*EntryBytes {
		return nil, nil, bad
	}
	entries = make([]Entry, ne)
	for i := range entries {
		b := data[i*EntryBytes:]
		entries[i] = Entry{
			LogicalOff: int64(binary.LittleEndian.Uint64(b[0:])),
			Length:     int64(binary.LittleEndian.Uint64(b[8:])),
			PhysOff:    int64(binary.LittleEndian.Uint64(b[16:])),
			Timestamp:  int64(binary.LittleEndian.Uint64(b[24:])),
			Dropping:   int32(binary.LittleEndian.Uint32(b[32:])),
			Rank:       int32(binary.LittleEndian.Uint32(b[36:])),
		}
	}
	return paths, entries, nil
}
