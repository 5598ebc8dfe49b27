package plfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"path"
	"strings"
	"time"

	"plfs/internal/extent"
	"plfs/internal/obs"
	"plfs/internal/payload"
)

// Reader is a read handle on a logical PLFS file.  Opening a reader pays
// the deferred cost of PLFS's write optimization: aggregating every
// writer's index records into a global offset map, using the mount's
// aggregation mode.
type Reader struct {
	m   *Mount
	ctx Ctx
	rel string

	ix      *Index
	st      *containerState // pinned for the open (nil outside OpenReader)
	gen     uint64          // container generation captured at open
	handles map[int32]File
	vsums   map[int32]*extentSums // lazy per-dropping checksums (VerifyData)
	pbuf    []Piece               // reused Lookup buffer (alloc-free ReadAt)
	closed  bool
	sp      *obs.Span // the enclosing "open" span (nil when obs is off)

	// Stats describes what this open did (for tests and the harness).
	Stats OpenStats
}

// OpenStats reports the work an OpenReader performed.
type OpenStats struct {
	Mode       Mode  // effective aggregation mode
	UsedGlobal bool  // served from a flattened global index
	CacheHit   bool  // served from the cross-open index cache
	Droppings  int   // droppings in the container
	RawEntries int   // raw index records aggregated
	IndexReads int   // index files this process read
	IndexBytes int64 // index bytes this process read
	// SkippedShards lists index droppings this process could not read
	// or parse and skipped under Options.AllowPartial; their extents
	// read as holes.
	SkippedShards []string
}

func (m *Mount) newReader(ctx Ctx, rel string) *Reader {
	return &Reader{m: m, ctx: ctx, rel: rel, handles: map[int32]File{}}
}

// OpenReader opens the logical file rel for reading.  With a communicator
// the configured collective aggregation runs; without one (serial/FUSE
// mode) the Original uncoordinated design is used.
func (m *Mount) OpenReader(ctx Ctx, rel string) (*Reader, error) {
	ctx = m.bind(ctx)
	rel = clean(rel)
	admitted, aerr := m.admit(ctx, "open")
	if aerr != nil {
		return nil, aerr
	}
	defer admitted()
	r := m.newReader(ctx, rel)
	// Pin the state for the aggregation window: the generation captured
	// here must still be current when maybeCachePut publishes under it,
	// and eviction (which restarts the sequence at zero) would break that.
	r.st = m.pin(rel, ctx.Tenant)
	defer m.unpin(r.st)
	r.gen = r.st.curGen()
	mode := m.opt.IndexMode
	if ctx.Comm == nil {
		mode = Original
	}
	r.Stats.Mode = mode

	r.sp = ctx.Obs.StartSpan("open")
	defer r.sp.End()
	var err error
	if mode == Original {
		err = r.openOriginal()
	} else {
		err = r.openCollective()
	}
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.open.ops").Add(1)
		ctx.Obs.Counter("plfs.open.index_reads").Add(int64(r.Stats.IndexReads))
		ctx.Obs.Counter("plfs.open.index_bytes").Add(r.Stats.IndexBytes)
		if err != nil {
			ctx.Obs.Counter("plfs.open.errors").Add(1)
		}
	}
	if err != nil {
		return nil, err
	}
	r.Stats.Droppings = len(r.ix.Droppings())
	r.Stats.RawEntries = r.ix.RawEntries()
	r.maybeCachePut()
	return r, nil
}

// cacheGet consults the cross-open index cache — the container state's
// built index, if an earlier open shared it — at the generation captured
// when this open started.  An open consults it at most once, so each
// counts one hit or miss.
func (r *Reader) cacheGet() *Index {
	if r.m.opt.NoIndexCache {
		return nil
	}
	var ix *Index
	r.st.mu.Lock()
	if r.st.shared && r.st.builtKey.gen == r.gen {
		ix = r.st.built
	}
	r.st.mu.Unlock()
	if r.ctx.Obs != nil {
		if ix != nil {
			r.ctx.Obs.Counter("plfs.index.cache.hit").Add(1)
		} else {
			r.ctx.Obs.Counter("plfs.index.cache.miss").Add(1)
		}
	}
	if ix != nil {
		r.Stats.CacheHit = true
	}
	return ix
}

// maybeCachePut shares the built index with later opens of the
// container.  Only the process that aggregated shares — a serial opener,
// or rank 0 of a collective flatten/parallel open.  Collective Original
// opens stay entirely cache-free (every rank aggregates independently;
// the N² baseline must keep its uncoordinated cost), and partial opens
// are never shared: their skipped shards read as holes, which is not
// the container's true content.  An index larger than the whole budget
// is not shared either, and the memo must still be this open's index at
// this open's generation.
func (r *Reader) maybeCachePut() {
	m, st := r.m, r.st
	if m.opt.NoIndexCache || m.opt.AllowPartial || r.Stats.CacheHit {
		return
	}
	if r.ctx.Comm != nil && (r.Stats.Mode == Original || r.ctx.Comm.Rank() != 0) {
		return
	}
	if r.ix.residentBytes() > m.econ.budget {
		return
	}
	st.mu.Lock()
	if st.built == r.ix && st.builtKey.gen == r.gen {
		st.shared = true
	}
	st.mu.Unlock()
}

// volOfPath maps a backend path to its volume by root prefix.
func (m *Mount) volOfPath(p string) int {
	best, bestLen := 0, -1
	for v, root := range m.roots {
		if strings.HasPrefix(p, root+"/") || p == root {
			if len(root) > bestLen {
				best, bestLen = v, len(root)
			}
		}
	}
	return best
}

// The modelled CPU cost of index handling, charged through the
// context's Sleeper: parseCPUPerEntry for decoding a record from its
// dropping, mergeCPUPerEntry for resolving it into the global offset map
// (the dominant open-time CPU term at scale).
const (
	parseCPUPerEntry = 500 * time.Nanosecond
	mergeCPUPerEntry = 2 * time.Microsecond
)

// tryGlobalIndex reads and decodes the flattened global index, its
// records and data dropping paths; it returns (nil, nil) when none
// exists.  It builds nothing: the caller decides who builds.
func (r *Reader) tryGlobalIndex() (*frame, error) {
	m, ctx := r.m, r.ctx
	cpath, _ := m.containerPath(r.rel)
	gp := path.Join(cpath, metaDir, globalIndex)
	// Existence probe: most containers have no flattened index, so a
	// degraded replica slot must not charge its browned-out latency just
	// to confirm a miss a healthy volume already reported.
	pl, size, err := m.readIndexReplicated(ctx, gp, true)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	r.Stats.IndexReads++
	r.Stats.IndexBytes += size
	f, err := decodeFrame(frameGlobal, pl.Materialize())
	if err != nil {
		return nil, fmt.Errorf("plfs: %s: %w", gp, err)
	}
	ctx.sleep(parseCPUPerEntry * time.Duration(len(f.recs)))
	return &f, nil
}

// survey probes the container for a flattened global index and, when
// there is none, lists its droppings: the one look at the container a
// read open takes (every rank of a collective Original open takes it,
// rank 0 of any other open).
func (r *Reader) survey() (*frame, []droppingRef, error) {
	if global, err := r.tryGlobalIndex(); err != nil || global != nil {
		return global, nil, err
	}
	drops, err := r.m.listDroppings(r.ctx, r.rel)
	return nil, drops, err
}

// buildGlobal builds (with caching) the index of a flattened global
// index's records and data dropping paths.
func (r *Reader) buildGlobal(recs []Rec, paths []string) *Index {
	last := ""
	if len(paths) > 0 {
		last = paths[len(paths)-1]
	}
	return r.buildCached(len(paths), len(recs), last, func() ([][]Rec, []string) { return [][]Rec{recs}, paths })
}

// buildListed builds (with caching) the index of total records in the
// shards read from the n droppings of a listing, whose i-th data path is
// data(i).  Only the process that builds calls shards and lays out the
// job-sized path table.
func (r *Reader) buildListed(n, total int, data func(i int) string, shards func() [][]Rec) *Index {
	last := ""
	if n > 0 {
		last = data(n - 1)
	}
	return r.buildCached(n, total, last, func() ([][]Rec, []string) {
		paths := make([]string, n)
		for i := range paths {
			paths[i] = data(i)
		}
		return shards(), paths
	})
}

// buildCached returns the container's resolved index for an aggregation
// of total records over ndrops data droppings, the last at path last.
// Every caller pays the modeled merge cost; only the first to arrive with
// a given key calls assemble for the shards and dropping paths and builds,
// so the ranks of a collective open share one build and one set of tables.
// The build is charged to the economy; the states it forces out count as
// plfs.index.cache.evict.
func (r *Reader) buildCached(ndrops, total int, last string, assemble func() ([][]Rec, []string)) *Index {
	msp := r.sp.Child("merge")
	defer msp.End()
	m := r.m
	st := m.stateOf(r.rel, r.ctx.Tenant)
	r.ctx.sleep(mergeCPUPerEntry * time.Duration(total))
	st.mu.Lock()
	key := builtKey{st.gen, ndrops, total, last}
	if st.builtKey == key && st.built != nil {
		ix := st.built
		st.mu.Unlock()
		return ix
	}
	shards, dataPaths := assemble()
	ix := BuildIndexRecs(shards, dataPaths, m.workers)
	delta := st.setBuilt(key, ix)
	tenant := st.tenant
	st.mu.Unlock()
	m.econ.charge(tenant, delta)
	if shed := m.econ.rebalance(); shed > 0 && r.ctx.Obs != nil {
		r.ctx.Obs.Counter("plfs.index.cache.evict").Add(int64(shed))
	}
	return ix
}

// readShards reads and parses the given index droppings, collecting one
// error per failed shard (joined) instead of failing on the first.  The
// returned slice is aligned with refs; a ref with no index dropping has
// no shard.
//
// Backend calls and per-shard parse charges stay on the caller's
// goroutine (the discrete-event engine requires blocking operations
// there); only the pure-CPU decode of uncached shards runs on the mount's
// pool, so the virtual time charged is the serial baseline's.
//
// The parse cache is consulted only once every read is done, and filled
// before this process parks again.  So the ranks of a collective open,
// whose reads interleave, decode each shard once between them (the first
// to finish its reads does it) and never hold its bytes at once.
func (r *Reader) readShards(refs []shardRef) ([][]Rec, error) {
	dsp := r.sp.Child("decode")
	defer dsp.End()
	m, ctx := r.m, r.ctx
	st := m.stateOf(r.rel, ctx.Tenant)
	out := make([][]Rec, len(refs))
	errs := make([]error, len(refs))
	pls := make([]payload.List, len(refs)) // nil for a cached shard once the reads are done
	for i, ref := range refs {
		if ref.Ref.Index == "" {
			continue
		}
		pl, size, err := m.readIndexReplicated(ctx, ref.Ref.Index, false)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", ref.Ref.Index, err)
			continue
		}
		r.Stats.IndexReads++
		r.Stats.IndexBytes += size
		ctx.sleep(parseCPUPerEntry * time.Duration(size/EntryBytes))
		pls[i] = pl
	}
	st.mu.Lock()
	for i, ref := range refs {
		if cached, ok := st.parsed[ref.Ref.Index]; ok && errs[i] == nil {
			out[i], pls[i] = withDropping(cached, ref.ID), nil
		}
	}
	st.mu.Unlock()
	parallelFor(m.workers, len(refs), func(i int) {
		if out[i] != nil || errs[i] != nil || refs[i].Ref.Index == "" {
			return
		}
		f, err := decodeFrame(frameIndex, pls[i].Materialize())
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", refs[i].Ref.Index, err)
			return
		}
		// Dropping ids belong to this reader's canonical order, not to
		// the writer.
		for j := range f.recs {
			f.recs[j].Dropping = refs[i].ID
		}
		out[i] = f.recs
	})
	for i, es := range out {
		if es != nil && pls[i] != nil {
			m.storeParsed(st, refs[i].Ref.Index, es)
		}
	}
	if m.opt.AllowPartial {
		// Graceful degradation: shards that stayed unreadable after
		// retries are dropped from the aggregation — their extents read
		// as holes — and recorded so callers can see what's missing.
		for i, e := range errs {
			if e == nil {
				continue
			}
			r.Stats.SkippedShards = append(r.Stats.SkippedShards, refs[i].Ref.Index)
			if ctx.Obs != nil {
				// Per-volume visibility for degraded reads (plfsctl top).
				ctx.Obs.Counter("plfs.read.skipped_shards").Add(1)
				ctx.Obs.Counter("plfs.read.skipped_shards." + m.roots[refs[i].Ref.Vol]).Add(1)
			}
			errs[i], out[i] = nil, nil
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// withDropping returns records with the given dropping id (copying only
// when the cached id differs).
func withDropping(recs []Rec, id int32) []Rec {
	if len(recs) == 0 || recs[0].Dropping == id {
		return recs
	}
	out := make([]Rec, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Dropping = id
	}
	return out
}

// shardRefs gives every dropping of a listing its shard ref, so the refs
// alone carry the path table: no rank keeps the listing or a path table
// of its own through the reads.  Callers pass its result straight to
// readRefs; a function that took the listing as a parameter would keep
// it live through its calls.
func (r *Reader) shardRefs(drops []droppingRef) []shardRef {
	refs := make([]shardRef, len(drops))
	for i, d := range drops {
		if d.Index == "" {
			r.m.fillMissingIndex(r.ctx, &d)
		}
		refs[i] = shardRef{Ref: d, ID: int32(i)}
	}
	return refs
}

// readRefs reads the index droppings of a listing's refs and builds the
// container's index from them: the tail of an Original open, of Stat
// without a size record and of Flatten.
func (r *Reader) readRefs(refs []shardRef) (*Index, error) {
	shards, err := r.readShards(refs)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	return r.buildListed(len(refs), total, func(i int) string { return refs[i].Ref.Data }, func() [][]Rec { return shards }), nil
}

// openOriginal is the paper's original design: this process alone
// surveys the container and reads every index dropping (N readers each
// doing this produce the N² open storm of Fig. 3a).  Only the serial
// (no-communicator) path consults the cross-open cache; collective
// Original opens model the paper's uncoordinated baseline and must not
// share state between ranks.
func (r *Reader) openOriginal() error {
	if r.ctx.Comm == nil {
		if r.ix = r.cacheGet(); r.ix != nil {
			return nil
		}
	}
	lsp := r.sp.Child("list")
	global, drops, err := r.survey()
	lsp.End()
	if err != nil {
		return err
	}
	if global != nil {
		r.ix, r.Stats.UsedGlobal = r.buildGlobal(global.recs, global.paths), true
		return nil
	}
	r.ix, err = r.readRefs(r.shardRefs(drops))
	return err
}

// openCollective is a collective Index Flatten or Parallel Index Read
// open.  Rank 0 checks the cross-open cache, surveys the container and
// broadcasts one header.  Then every rank takes the flattened global
// index by broadcast (Fig. 3b) or, where the writers left none, runs the
// Parallel Index Read groups over rank 0's listing (Fig. 3c): the two
// modes differ only in what the writers left behind.  A rank-0 cache hit
// rides the header: the mount cache is process-shared memory, so handing
// peers the pointer costs no modeled transport.
func (r *Reader) openCollective() error {
	c := r.ctx.Comm
	type hdr struct {
		errs   string
		cached *Index
		global bool
		n      int64 // the global index's wire bytes, or the droppings listed
	}
	var hv, mv any
	lsp := r.sp.Child("list")
	if c.Rank() == 0 {
		if ix := r.cacheGet(); ix != nil {
			hv = hdr{cached: ix}
		} else if global, drops, err := r.survey(); err != nil {
			hv = hdr{errs: err.Error()}
		} else if global != nil {
			// The records as read: rank 0 builds after the broadcast, like
			// every rank, and not before it.
			hv = hdr{global: true, n: recsWireLen(global.recs)}
			mv = global
		} else {
			hv = hdr{n: int64(len(drops))}
			mv = drops
		}
	}
	lsp.End()
	xsp := r.sp.Child("exchange")
	h := c.Bcast(0, 24, hv).(hdr)
	switch {
	case h.errs != "":
		xsp.End()
		return errors.New(h.errs)
	case h.cached != nil:
		xsp.End()
		r.ix, r.Stats.CacheHit = h.cached, true
		return nil
	case h.global:
		got := c.Bcast(0, h.n, mv).(*frame)
		xsp.End()
		r.Stats.Mode, r.Stats.UsedGlobal = IndexFlatten, true
		r.ix = r.buildGlobal(got.recs, got.paths)
		return nil
	}
	drops, _ := c.Bcast(0, h.n*96, mv).([]droppingRef)
	xsp.End()
	r.Stats.Mode = ParallelIndexRead
	return r.readParallel(drops)
}

// parallel-read shard transport.
type shardMsg struct {
	ID   int32
	Recs []Rec
}

// mergedShards is a group leader's final broadcast: every shard, and how
// many records they hold.
type mergedShards struct {
	all   []shardMsg
	total int
}

// readParallel is Parallel Index Read's collective tail (Fig. 3c): ranks
// are partitioned into groups; members read disjoint subsets of the
// listed index droppings; group leaders merge, exchange with the other
// leaders, and broadcast the global set within their groups.  The
// container is opened N times instead of N².
func (r *Reader) readParallel(drops []droppingRef) error {
	m, c := r.m, r.ctx.Comm
	n := c.Size()
	groupSize := m.opt.GroupSize
	if groupSize <= 0 {
		groupSize = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if groupSize > n {
		groupSize = n
	}
	group := c.Split(c.Rank()/groupSize, c.Rank())
	numGroups := (n + groupSize - 1) / groupSize
	myGroup := c.Rank() / groupSize
	isLeader := group.Rank() == 0

	// The leaders form their own communicator; everyone else gets a
	// private color (their comm is unused).
	leaderColor := 0
	if !isLeader {
		leaderColor = 1 + myGroup
	}
	leaders := c.Split(leaderColor, c.Rank())

	// Leader assigns members their subset of this group's droppings.
	xsp := r.sp.Child("exchange")
	var assignment []shardRef
	if isLeader {
		mine := chunk(len(drops), numGroups, myGroup)
		members := group.Size()
		lists := make([][]shardRef, members)
		for k, di := range mine {
			w := k % members
			lists[w] = append(lists[w], shardRef{Ref: drops[di], ID: int32(di)})
		}
		vs := make([]any, members)
		for i := range vs {
			vs[i] = lists[i]
		}
		assignment = group.Scatter(0, 32, vs).([]shardRef)
	} else {
		assignment = group.Scatter(0, 32, nil).([]shardRef)
	}
	xsp.End()

	// Members read their assigned subindices (readShards decodes them on
	// the mount's pool).
	refs := make([]shardRef, 0, len(assignment))
	for _, a := range assignment {
		if a.Ref.Index == "" && !r.m.fillMissingIndex(r.ctx, &a.Ref) {
			continue
		}
		refs = append(refs, a)
	}
	read, err := r.readShards(refs)
	if err != nil {
		return err
	}
	var mine []shardMsg
	var mineBytes int64
	for i, sh := range read {
		mine = append(mine, shardMsg{ID: refs[i].ID, Recs: sh})
		mineBytes += recsWireLen(sh)
	}

	// Members return subindices to their leader; leaders exchange and
	// broadcast the merged global set within their groups.
	xsp = r.sp.Child("exchange")
	gathered := group.Gather(0, mineBytes+32, mine)
	var all []shardMsg
	if isLeader {
		var groupShards []shardMsg
		var groupBytes int64
		for _, gv := range gathered {
			for _, sm := range gv.([]shardMsg) {
				groupShards = append(groupShards, sm)
				groupBytes += recsWireLen(sm.Recs)
			}
		}
		exchanged := leaders.Allgather(groupBytes+32, groupShards)
		k := 0
		for _, ev := range exchanged {
			k += len(ev.([]shardMsg))
		}
		all = make([]shardMsg, 0, k)
		for _, ev := range exchanged {
			all = append(all, ev.([]shardMsg)...)
		}
	}
	// Leader first announces the merged size so every forwarding hop in
	// the broadcast tree charges the true volume.  The record count rides
	// with the records, so no rank sums it again.
	merged := mergedShards{all: all}
	var allBytes int64
	for _, sm := range all {
		allBytes += recsWireLen(sm.Recs)
		merged.total += len(sm.Recs)
	}
	allBytes = group.Bcast(0, 8, allBytes).(int64)
	merged = group.Bcast(0, allBytes, merged).(mergedShards)
	all, total := merged.all, merged.total
	xsp.End()

	// Every rank holds the same all and drops; the job-sized shard and
	// path tables are laid out only by the rank that builds.
	r.ix = r.buildListed(len(drops), total, func(i int) string { return drops[i].Data }, func() [][]Rec {
		shards := make([][]Rec, len(all))
		for i, sm := range all {
			shards[i] = sm.Recs
		}
		return shards
	})
	return nil
}

type shardRef struct {
	Ref droppingRef
	ID  int32
}

// chunk returns the indices [0,total) assigned to bucket b of nb buckets
// (contiguous blocks, remainder to the low buckets).  Empty buckets get
// nil, so assignment fan-out allocates nothing for idle members.
func chunk(total, nb, b int) []int {
	base := total / nb
	rem := total % nb
	start := b*base + min(b, rem)
	count := base
	if b < rem {
		count++
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for i := start; i < start+count; i++ {
		out = append(out, i)
	}
	return out
}

// Size returns the logical file size.
func (r *Reader) Size() int64 { return r.ix.Size() }

// Index exposes the resolved global index (diagnostics and tests).
func (r *Reader) Index() *Index { return r.ix }

// handle lazily opens the data dropping with the given id.
func (r *Reader) handle(id int32) (File, error) {
	if f, ok := r.handles[id]; ok {
		return f, nil
	}
	p := r.ix.Droppings()[id]
	f, err := r.ctx.Vols[r.m.volOfPath(p)].OpenRead(p)
	if err != nil {
		return nil, err
	}
	r.handles[id] = f
	return f, nil
}

// ReadAt returns the logical byte range [off, off+n), with holes reading
// as zeros.  When the read pattern matches the write pattern, each piece
// is a sequential read of one log-structured dropping — the prefetch-
// friendly pattern the paper credits for PLFS read speedups.
//
// The physical reads are planned by sieving coalescing (planBatches):
// per dropping, pieces within Options.SieveGap bytes of each other merge
// into one backend read, and each piece's bytes are sliced back out of
// its batch during reassembly.  The batches issue on the caller's
// goroutine, as the discrete-event engine requires.
func (r *Reader) ReadAt(off, n int64) (payload.List, error) {
	if r.closed {
		return nil, errors.New("plfs: reader closed")
	}
	if obs := r.ctx.Obs; obs != nil {
		defer obs.Timer("plfs.readat")()
		obs.Counter("plfs.read.ops").Add(1)
		obs.Counter("plfs.read.bytes").Add(n)
	}
	r.pbuf = r.ix.AppendPieces(r.pbuf[:0], off, n)
	return r.readPieces(r.pbuf)
}

// ReadAtv reads many logical extents in one call, returning their bytes
// concatenated in segment order (holes as zeros).  All segments' index
// pieces enter one sieving/coalescing plan, so extents that resolve to
// nearby bytes of the same dropping share a physical read even across
// segment boundaries — the list-I/O read path.
func (r *Reader) ReadAtv(segs []extent.Ext) (payload.List, error) {
	if r.closed {
		return nil, errors.New("plfs: reader closed")
	}
	var total int64
	r.pbuf = r.pbuf[:0]
	for _, e := range segs {
		if e.Len <= 0 {
			continue
		}
		total += e.Len
		r.pbuf = r.ix.AppendPieces(r.pbuf, e.Off, e.Len)
	}
	if obs := r.ctx.Obs; obs != nil {
		defer obs.Timer("plfs.readat")()
		obs.Counter("plfs.read.vec_ops").Add(1)
		obs.Counter("plfs.read.vec_segs").Add(int64(len(segs)))
		obs.Counter("plfs.read.bytes").Add(total)
	}
	return r.readPieces(r.pbuf)
}

// readPieces executes the lookup result of one ReadAt/ReadAtv call:
// plans physical batches, issues them, and reassembles the pieces in
// order.
func (r *Reader) readPieces(pieces []Piece) (payload.List, error) {
	if r.m.opt.VerifyData {
		// Verification reads each piece's extent individually (the footer
		// CRCs cover whole extents, not sieving batches).
		return r.readVerified(pieces)
	}

	if len(pieces) == 1 && pieces[0].Dropping >= 0 {
		return r.readOne(pieces[0])
	}
	return r.readPlanned(pieces)
}

// notePhys books the physical reads one call issues: phys bytes fetched
// from droppings, want of which the caller asked for.
func (r *Reader) notePhys(phys, want int64) {
	if obs := r.ctx.Obs; obs != nil {
		obs.Counter("plfs.read.phys_bytes").Add(phys)
		obs.Counter("plfs.read.sieve_wasted").Add(phys - want)
	}
}

// readOne serves a lookup that resolved to one contiguous data piece —
// every read whose pattern matches the write pattern — as what it is: one
// backend read.  Sieving and list I/O earn their planning cost on many
// noncontiguous pieces (DESIGN.md §12); here there is nothing to plan, so
// the backend's fresh list is returned as is.
func (r *Reader) readOne(p Piece) (payload.List, error) {
	r.notePhys(p.Length, p.Length)
	return r.readExtent(p.Dropping, p.PhysOff, p.Length)
}

// readExtent is one backend read of a dropping.
func (r *Reader) readExtent(drop int32, phys, n int64) (payload.List, error) {
	f, err := r.handle(drop)
	if err != nil {
		return nil, err
	}
	pl, err := f.ReadAt(phys, n)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.ix.Droppings()[drop], err)
	}
	return pl, nil
}

// readPlanned is the general plan: sieving batches, consecutive batches
// against one dropping collapsed into one vectored read, pieces sliced
// back out of their batches in order.
func (r *Reader) readPlanned(pieces []Piece) (payload.List, error) {
	batches := planBatches(pieces, r.m.opt.SieveGap)
	var want, phys int64
	for _, p := range pieces {
		if p.Dropping >= 0 {
			want += p.Length
		}
	}
	for _, b := range batches {
		phys += b.length
	}
	r.notePhys(phys, want)

	// Every handle opens before the first read: backend File handles are
	// reused across batches, and the backend sees all opens, then reads.
	for _, b := range batches {
		if _, err := r.handle(b.drop); err != nil {
			return nil, err
		}
	}
	parts := make([]payload.List, len(batches))
	// Consecutive batches against the same dropping (the planner emits
	// them sorted) collapse into one vectored backend read — list I/O on
	// the read side.
	for i, j := 0, 0; i < len(batches); i = j {
		j = i + 1
		for j < len(batches) && batches[j].drop == batches[i].drop {
			j++
		}
		if j-i == 1 {
			var err error
			if parts[i], err = r.readExtent(batches[i].drop, batches[i].phys, batches[i].length); err != nil {
				return nil, err
			}
			continue
		}
		segs := make([]extent.Ext, j-i)
		for k := i; k < j; k++ {
			segs[k-i] = extent.Ext{Off: batches[k].phys, Len: batches[k].length}
		}
		pl, err := r.handles[batches[i].drop].ReadvAt(segs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ix.Droppings()[batches[i].drop], err)
		}
		var pos int64
		for k := i; k < j; k++ {
			parts[k] = pl.Slice(pos, batches[k].length)
			pos += batches[k].length
		}
	}

	// Reassemble in logical order, slicing each piece out of its batch.
	batchOf := make([]int32, len(pieces))
	for bi, b := range batches {
		for _, pi := range b.pieces {
			batchOf[pi] = int32(bi)
		}
	}
	var out payload.List
	for pi, p := range pieces {
		if p.Dropping < 0 {
			out = out.Append(payload.Zeros(p.Length))
			continue
		}
		bi := batchOf[pi]
		b := batches[bi]
		out = out.Concat(parts[bi].Slice(p.PhysOff-b.phys, p.Length))
	}
	return out, nil
}

// readVerified is the Options.VerifyData read plan: strictly serial,
// one backend read per piece, each verified against the checksummed
// recovery footer before its bytes are returned.
func (r *Reader) readVerified(pieces []Piece) (payload.List, error) {
	var out payload.List
	for _, piece := range pieces {
		if piece.Dropping < 0 {
			out = out.Append(payload.Zeros(piece.Length))
			continue
		}
		if err := r.verifyPiece(piece); err != nil {
			if !r.m.opt.AllowPartial {
				return nil, err
			}
			// Graceful degradation: the corrupt extent reads as a
			// hole rather than serving damaged bytes.
			if obs := r.ctx.Obs; obs != nil {
				dp := r.ix.Droppings()[piece.Dropping]
				obs.Counter("plfs.read.checksum_zero_fill").Add(1)
				obs.Counter("plfs.read.checksum_zero_fill." + r.m.roots[r.m.volOfPath(dp)]).Add(1)
			}
			out = out.Append(payload.Zeros(piece.Length))
			continue
		}
		// Only the piece's own read is booked: verifyPiece's whole-extent
		// rereads are integrity checking, not data the caller fetched.
		r.notePhys(piece.Length, piece.Length)
		pl, err := r.readExtent(piece.Dropping, piece.PhysOff, piece.Length)
		if err != nil {
			return nil, err
		}
		out = out.Concat(pl)
	}
	return out, nil
}

// readBatch is one planned physical read: length bytes at phys of
// dropping drop, covering the piece indices in pieces (ascending, into
// the Lookup result that produced the plan).
type readBatch struct {
	drop   int32
	phys   int64
	length int64
	pieces []int32
}

// planBatches coalesces the data pieces of one lookup into physical
// reads: per dropping, pieces sorted by physical offset merge into a
// single read whenever the gap between them is at most gap bytes — the
// data-sieving optimization of Thakur et al.  gap 0 still merges
// exactly-adjacent pieces (including logically distant ones that landed
// physically back-to-back in the same dropping).  Holes are excluded;
// assembly synthesizes their zeros.  The merge itself is extent.Plan,
// shared with adio's write-side sieve and collective coalescer.
func planBatches(pieces []Piece, gap int64) []readBatch {
	idx := make([]int32, 0, len(pieces))
	for i, p := range pieces {
		if p.Dropping >= 0 {
			idx = append(idx, int32(i))
		}
	}
	bs := extent.Plan(len(idx),
		func(i int) int64 { return int64(pieces[idx[i]].Dropping) },
		func(i int) extent.Ext {
			p := pieces[idx[i]]
			return extent.Ext{Off: p.PhysOff, Len: p.Length}
		},
		gap, 0)
	out := make([]readBatch, len(bs))
	for bi, b := range bs {
		rb := readBatch{drop: int32(b.Key), phys: b.Off, length: b.Len, pieces: make([]int32, len(b.Items))}
		for k, it := range b.Items {
			rb.pieces[k] = idx[it]
		}
		out[bi] = rb
	}
	return out
}

// Close releases the reader's dropping handles.
func (r *Reader) Close() error {
	if r.closed {
		return errors.New("plfs: reader closed")
	}
	r.closed = true
	for _, f := range r.handles {
		f.Close()
	}
	r.handles = nil
	return nil
}

// Flatten aggregates an existing container's index droppings into a
// persistent global index (the plfs_flatten_index administrative tool):
// subsequent read opens, in any mode, serve from the single flattened
// file instead of re-aggregating — useful for write-once, read-many
// data.  It is idempotent; a second call is a cheap no-op.
func (m *Mount) Flatten(ctx Ctx, rel string) error {
	ctx = m.bind(ctx)
	rel = clean(rel)
	r := m.newReader(ctx, rel)
	global, drops, err := r.survey()
	if err != nil || global != nil {
		return err // nil when already flattened
	}
	ix, err := r.readRefs(r.shardRefs(drops))
	if err != nil {
		return err
	}
	recs := flattenRecsOf(ix)
	ctx.sleep(parseCPUPerEntry * time.Duration(len(recs)))
	buf := appendFrame(nil, frame{kind: frameGlobal, crc: m.opt.Checksum, paths: ix.Droppings(), recs: recs})
	// Atomic commit; a rename refused because another flattener already
	// published is fine — same container, same flattened content.
	cpath, _ := m.containerPath(rel)
	if err := m.commitReplicated(ctx, path.Join(cpath, metaDir, globalIndex), buf, false); err != nil {
		return err
	}
	// The flattened index changes what future opens should report
	// (UsedGlobal); stop serving the pre-flatten aggregation.
	m.stateOf(rel, ctx.Tenant).unshare()
	return nil
}
