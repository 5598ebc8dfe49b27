package plfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

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

// Index framing (DESIGN.md §12).  A writer's index dropping, the global
// index and a data dropping's recovery footer each hold a list of index
// records, and each is one frame, in parts (little-endian):
//
//	front    v2: u64 magic; on an index dropping, then u32 count
//	paths    global index: u32 n, n × (u32 len, bytes); count: v1 u64, v2 u32
//	records  v1: EntryBytes each; v2: tag 1 + entry, or tag 2 + entry +
//	         u32 count + i64 stride.  Footers are v1
//	sums     checksummed footer: u32 CRC32C of each record's data extent
//	trailer  checksummed: u32 CRC32C of the bytes before, u32 0; footer:
//	         u64 count; either: u64 magic
//
// Encoders write v2 only for a run (or when asked), so an all-singles
// list keeps the legacy bytes.
type frameKind uint8

const (
	frameIndex  frameKind = iota // a writer's index dropping
	frameGlobal                  // the flattened global index
	frameFooter                  // a data dropping's recovery footer
)

// frameKinds holds each kind's name and magics: v2 front, and trailer
// without and with a CRC.
var frameKinds = [...]struct {
	name               string
	front, tail, tailC uint64
}{
	frameIndex:  {"index dropping", 0x504c46535f495832, 0, 0x504c46535f494358},  // PLFS_IX2, PLFS_ICX
	frameGlobal: {"global index", 0x504c46535f475832, 0, 0x504c46535f474358},    // PLFS_GX2, PLFS_GCX
	frameFooter: {"recovery footer", 0, 0x504c46535f524543, 0x504c46535f524332}, // PLFS_REC, PLFS_RC2
}

// frame is one index artefact in memory.  An index dropping and the global
// index hold records (recs); a footer holds its writer's entries as they
// stand (ents) and, when checksummed, one data CRC32C per entry (sums).
type frame struct {
	kind  frameKind
	v2    bool // the v2 record list: set by decode; on encode, forces v2
	crc   bool // a CRC32C in the trailer (Options.Checksum)
	paths []string
	recs  []Rec
	ents  []Entry
	sums  []uint32
}

// tagged reports whether f is written with the v2 record list.
func (f *frame) tagged() bool {
	return f.kind != frameFooter && (f.v2 || slices.ContainsFunc(f.recs, isRun))
}

func isRun(r Rec) bool { return r.Count > 1 }

// frameLen returns len(appendFrame(nil, f)).
func frameLen(f *frame) int {
	n, tagged := len(f.recs)+len(f.ents), f.tagged()
	l := n*EntryBytes + 4*len(f.sums)
	if tagged {
		l += 8 + 4 + n // front magic, count, a tag a record
	}
	for _, r := range f.recs {
		if isRun(r) {
			l += 12 // a run's count and stride
		}
	}
	if f.kind == frameGlobal {
		for _, p := range f.paths {
			l += 4 + len(p)
		}
		if l += 4; !tagged {
			l += 8 // the v1 record count
		}
	}
	if f.crc || f.kind == frameFooter {
		l += 16 // the CRC or the count, and the magic
	}
	if f.crc && f.kind == frameFooter {
		l += 8
	}
	return l
}

// recsWireLen returns how many bytes an index dropping of recs takes —
// the figure the simulator charges for index transport.
func recsWireLen(recs []Rec) int64 {
	return int64(frameLen(&frame{kind: frameIndex, recs: recs}))
}

// appendFrame appends f's bytes to buf, growing it at most once.
func appendFrame(buf []byte, f frame) []byte {
	if need := frameLen(&f); cap(buf)-len(buf) < need {
		buf = append(make([]byte, 0, len(buf)+need), buf...)
	}
	k, le := &frameKinds[f.kind], binary.LittleEndian
	start, tagged, n := len(buf), f.tagged(), len(f.recs)+len(f.ents)
	if tagged {
		buf = le.AppendUint64(buf, k.front)
	}
	if f.kind == frameGlobal {
		buf = le.AppendUint32(buf, uint32(len(f.paths)))
		for _, p := range f.paths {
			buf = append(le.AppendUint32(buf, uint32(len(p))), p...)
		}
		if !tagged {
			buf = le.AppendUint64(buf, uint64(n))
		}
	}
	if tagged {
		buf = le.AppendUint32(buf, uint32(n))
	}
	for i := 0; i < n; i++ {
		r := Rec{Count: 1}
		if f.recs != nil {
			r = f.recs[i]
		} else {
			r.Entry = f.ents[i]
		}
		if tagged {
			buf = append(buf, byte(min(max(r.Count, 1), 2))) // 1 a single, 2 a run
		}
		buf = le.AppendUint64(le.AppendUint64(buf, uint64(r.LogicalOff)), uint64(r.Length))
		buf = le.AppendUint64(le.AppendUint64(buf, uint64(r.PhysOff)), uint64(r.Timestamp))
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(r.Dropping)), uint32(r.Rank))
		if tagged && isRun(r) {
			buf = le.AppendUint64(le.AppendUint32(buf, uint32(r.Count)), uint64(r.Stride))
		}
	}
	for _, s := range f.sums {
		buf = le.AppendUint32(buf, s)
	}
	magic := k.tail
	if f.crc {
		buf = le.AppendUint64(buf, uint64(crc32.Checksum(buf[start:], castagnoli))) // and the zero
		magic = k.tailC
	}
	if f.kind == frameFooter {
		buf = le.AppendUint64(buf, uint64(n))
	}
	if magic != 0 {
		buf = le.AppendUint64(buf, magic)
	}
	return buf
}

// trailerOf parses the trailer ending data, a frame of kind: the record
// count it gives (a footer's), its length, and whether it has a CRC.
// Without a trailer magic there is no trailer; a footer must have one.
func trailerOf(kind frameKind, data []byte) (n uint64, tlen int, crc bool, err error) {
	k := &frameKinds[kind]
	var magic uint64
	if len(data) >= 8 {
		magic = binary.LittleEndian.Uint64(data[len(data)-8:])
	}
	switch {
	case magic == k.tailC:
		crc = true
	case kind != frameFooter:
		return 0, 0, false, nil
	case magic != k.tail:
		return 0, 0, false, errors.New("no recovery footer (bad magic)")
	}
	if tlen = 16; crc && kind == frameFooter {
		tlen = 24
	}
	if len(data) < tlen {
		return 0, 0, false, fmt.Errorf("corrupt %s (%d-byte trailer in %d bytes)", k.name, tlen, len(data))
	}
	if kind == frameFooter {
		n = binary.LittleEndian.Uint64(data[len(data)-16:])
	}
	return n, tlen, crc, nil
}

// frameCursor reads a frame front to back, w bytes at a time (next).  A
// read past the end yields zeros and sets short, which stays set, so a
// parse checks it once.
type frameCursor struct {
	b     []byte
	short bool
}

var zeroEntry [EntryBytes]byte

func (c *frameCursor) next(w int) []byte {
	if c.short = c.short || w > len(c.b); c.short {
		return zeroEntry[:min(w, EntryBytes)]
	}
	p := c.b[:w]
	c.b = c.b[w:]
	return p
}

func (c *frameCursor) u32() uint32 { return binary.LittleEndian.Uint32(c.next(4)) }
func (c *frameCursor) u64() uint64 { return binary.LittleEndian.Uint64(c.next(8)) }

// decodeFrame parses all of data as a frame of kind, checking a trailer's
// CRC.  Dropping ids come back as stored.  Counts are bounded by the bytes
// left before anything is allocated, so no forged count over-allocates.
func decodeFrame(kind frameKind, data []byte) (frame, error) {
	k, le := &frameKinds[kind], binary.LittleEndian
	n, tlen, crc, err := trailerOf(kind, data)
	if err != nil {
		return frame{}, err
	}
	corrupt := func(why string, a ...any) (frame, error) {
		return frame{}, fmt.Errorf("corrupt %s (%s)", k.name, fmt.Sprintf(why, a...))
	}
	f, c := frame{kind: kind, crc: crc}, frameCursor{b: data[:len(data)-tlen]}
	if crc {
		if got, want := crc32.Checksum(c.b, castagnoli), le.Uint32(data[len(c.b):]); got != want {
			return frame{}, fmt.Errorf("%s checksum mismatch (crc32c %08x, trailer says %08x)", k.name, got, want)
		}
		if r := le.Uint32(data[len(c.b)+4:]); r != 0 {
			return corrupt("reserved field %08x", r)
		}
	}
	if f.v2 = kind != frameFooter && len(c.b) >= 8 && le.Uint64(c.b) == k.front; f.v2 {
		c.next(8)
	}
	if kind == frameGlobal {
		for np := c.u32(); np > 0 && !c.short; np-- {
			f.paths = append(f.paths, string(c.next(int(c.u32()))))
		}
	}
	per := EntryBytes // the fewest bytes a record takes
	switch {
	case f.v2:
		n, per = uint64(c.u32()), per+1
	case kind == frameGlobal:
		n = c.u64()
	case kind == frameIndex:
		n = uint64(len(c.b) / EntryBytes)
	case crc:
		per += 4 // the record's sum
	}
	if c.short || n > uint64(len(c.b)/per) {
		return corrupt("%d records in %d bytes", n, len(c.b))
	}
	if kind == frameFooter {
		f.ents = make([]Entry, 0, n)
	} else {
		f.recs = make([]Rec, 0, n)
	}
	for ; n > 0 && !c.short; n-- {
		tag := byte(1)
		if f.v2 {
			tag = c.next(1)[0]
		}
		b := c.next(EntryBytes)
		r := Rec{Count: 1, Entry: Entry{
			LogicalOff: int64(le.Uint64(b[0:])), Length: int64(le.Uint64(b[8:])),
			PhysOff: int64(le.Uint64(b[16:])), Timestamp: int64(le.Uint64(b[24:])),
			Dropping: int32(le.Uint32(b[32:])), Rank: int32(le.Uint32(b[36:])),
		}}
		switch tag {
		case 1:
		case 2:
			r.Count, r.Stride = int32(c.u32()), int64(c.u64())
			// Counts and strides that could overflow the expansion arithmetic,
			// or describe overlapping elements, are corruption, not data.
			if r.Count < 2 || r.Count > 1<<30 || r.Length < 0 || r.LogicalOff < 0 ||
				r.Stride < r.Length || (r.Stride > 0 && int64(r.Count) > (1<<62)/r.Stride) {
				return corrupt("run of %d, stride %d", r.Count, r.Stride)
			}
		default:
			return corrupt("record tag %d", tag)
		}
		if kind == frameFooter {
			f.ents = append(f.ents, r.Entry)
		} else {
			f.recs = append(f.recs, r)
		}
	}
	if crc && kind == frameFooter {
		f.sums = make([]uint32, len(f.ents))
		for i := range f.sums {
			f.sums[i] = c.u32()
		}
	}
	if c.short || len(c.b) != 0 {
		return corrupt("records do not fill their %d bytes", len(data)-tlen)
	}
	return f, nil
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
// merged; and records are resolved as they leave the merge.  A Mount passes
// its pool width; workers stays a parameter because the benchmark module's
// probes call it with one of their own.
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
