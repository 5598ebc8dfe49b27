package plfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"path"
	"strings"
	"sync/atomic"

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

	ix        *Index
	gen       uint64 // container generation captured at open
	skipCache bool   // index cache already consulted this open
	handles   map[int32]File
	vsums     map[int32]*extentSums // lazy per-dropping checksums (VerifyData)
	pbuf      []Piece               // reused Lookup buffer (alloc-free ReadAt)
	fan       int                   // ReadAt fan-out width, fixed at open (1 = serial)
	closed    bool
	sp        *obs.Span // the enclosing "open" span (nil when obs is off)

	// Stats describes what this open did (for tests and the harness).
	Stats OpenStats
	// ReadStats accumulates what this reader's ReadAt calls did.
	ReadStats ReadStats
}

// OpenStats reports the work an OpenReader performed.
type OpenStats struct {
	Mode          Mode  // effective aggregation mode
	UsedGlobal    bool  // served from a flattened global index
	CacheHit      bool  // served from the cross-open index cache
	Droppings     int   // droppings in the container
	RawEntries    int   // raw index records aggregated
	IndexReads    int   // index files this process read
	IndexBytes    int64 // index bytes this process read
	DecodeWorkers int   // worker-pool width used for decode/build
	// SkippedShards lists index droppings this process could not read
	// or parse and skipped under Options.AllowPartial; their extents
	// read as holes.
	SkippedShards []string
}

// ReadStats reports the work a reader's ReadAt calls performed.
type ReadStats struct {
	Ops     int // ReadAt calls served
	VecOps  int // ReadAtv calls served
	VecSegs int // logical extents covered across all ReadAtv calls
	Pieces  int // index pieces covered, including holes
	Holes   int // hole pieces (zeros, no I/O)
	Batches int // physical dropping reads issued after sieving coalescing
	Workers int // fan-out width of the last ReadAt (1 = serial)
	// PhysBytes counts bytes fetched from droppings, including sieving
	// gap bytes; SieveWasted is the gap-only portion (PhysBytes minus the
	// bytes callers asked for), the read-amplification cost of
	// Options.SieveGap.
	PhysBytes   int64
	SieveWasted int64
	// ChecksumErrors counts extents whose data failed VerifyData
	// verification and were served as zeros under Options.AllowPartial.
	ChecksumErrors int
}

func (m *Mount) newReader(ctx Ctx, rel string) *Reader {
	r := &Reader{m: m, ctx: ctx, rel: rel, handles: map[int32]File{}, fan: 1}
	if w := m.opt.DecodeWorkers; w > 1 && backendsConcurrent(ctx.Vols) {
		r.fan = w
	}
	return r
}

// OpenReader opens the logical file rel for reading.  With a communicator
// the configured collective aggregation runs; without one (serial/FUSE
// mode) the Original uncoordinated design is used.
func (m *Mount) OpenReader(ctx Ctx, rel string) (*Reader, error) {
	ctx = m.healthCtx(ctx)
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
	st := m.pin(rel, ctx.Tenant)
	defer m.unpin(st)
	r.gen = st.curGen()
	mode := m.opt.IndexMode
	if ctx.Comm == nil {
		mode = Original
	}
	r.Stats.Mode = mode
	r.Stats.DecodeWorkers = m.opt.DecodeWorkers

	r.sp = ctx.Obs.StartSpan("open")
	defer r.sp.End()
	var err error
	switch mode {
	case Original:
		err = r.aggregateOriginal()
	case IndexFlatten:
		err = r.aggregateFlatten()
	case ParallelIndexRead:
		err = r.aggregateParallel()
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

// cacheGet consults the mount's cross-open index cache at the generation
// captured when this open started.  Exactly one hit or miss is counted
// per open regardless of how many aggregation strategies consult the
// cache on the way (flatten falling back to parallel, parallel deferring
// to flatten).
func (r *Reader) cacheGet() *Index {
	if r.m.ixc == nil || r.m.opt.NoIndexCache {
		return nil
	}
	count := !r.skipCache
	r.skipCache = true
	ix := r.m.ixc.get(r.m.ckey(r.rel), r.gen)
	if count && r.ctx.Obs != nil {
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

// maybeCachePut publishes the built index to the mount's cross-open
// cache.  Only the process that aggregated publishes — a serial opener,
// or rank 0 of a collective flatten/parallel open.  Collective Original
// opens stay entirely cache-free (every rank aggregates independently;
// the N² baseline must keep its uncoordinated cost), and partial opens
// are never published: their skipped shards read as holes, which is not
// the container's true content.
func (r *Reader) maybeCachePut() {
	m := r.m
	if m.ixc == nil || m.opt.NoIndexCache || m.opt.AllowPartial || r.Stats.CacheHit {
		return
	}
	if r.ctx.Comm != nil && (r.Stats.Mode == Original || r.ctx.Comm.Rank() != 0) {
		return
	}
	if ev := m.ixc.put(m.ckey(r.rel), r.gen, r.ix, r.ctx.Tenant); ev > 0 && r.ctx.Obs != nil {
		r.ctx.Obs.Counter("plfs.index.cache.evict").Add(int64(ev))
	}
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

// tryGlobalIndex attempts to read the flattened global index; it returns
// (nil, nil) when none exists.
func (r *Reader) tryGlobalIndex() (*Index, error) {
	m, ctx := r.m, r.ctx
	cpath, _ := m.containerPath(r.rel)
	gp := path.Join(cpath, metaDir, globalIndex)
	// Existence probe: most containers have no flattened index, so a
	// degraded replica slot must not charge its browned-out latency just
	// to confirm a miss a healthy volume already reported.
	pl, size, err := m.readIndexReplicatedOpt(ctx, gp, m.opt.Retry, true)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	r.Stats.IndexReads++
	r.Stats.IndexBytes += size
	paths, recs, err := decodeGlobalIndexAuto(pl.Materialize())
	if err != nil {
		return nil, err
	}
	ctx.sleep(m.opt.ParseCPUPerEntry * timeDuration(len(recs)))
	return r.buildShards([][]Rec{recs}, paths), nil
}

// buildShards builds (with caching) the resolved index from raw shards.
func (r *Reader) buildShards(shards [][]Rec, dataPaths []string) *Index {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	last := ""
	if len(dataPaths) > 0 {
		last = dataPaths[len(dataPaths)-1]
	}
	return r.buildCached(len(dataPaths), total, last, func() ([][]Rec, []string) { return shards, dataPaths })
}

// buildCached returns the container's resolved index for an aggregation
// of total records over ndrops data droppings, the last at path last.
// Every caller pays the modeled merge cost; only the first to arrive with
// a given key calls assemble for the shards and dropping paths and builds,
// so the ranks of a collective open share one build and one set of tables.
func (r *Reader) buildCached(ndrops, total int, last string, assemble func() ([][]Rec, []string)) *Index {
	msp := r.sp.Child("merge")
	defer msp.End()
	st := r.m.stateOf(r.rel, r.ctx.Tenant)
	r.ctx.sleep(r.m.opt.MergeCPUPerEntry * timeDuration(total))
	st.mu.Lock()
	defer st.mu.Unlock()
	key := builtKey{st.gen, ndrops, total, last}
	if st.builtKey == key && st.built != nil {
		return st.built
	}
	shards, dataPaths := assemble()
	ix := BuildIndexRecs(shards, dataPaths, r.m.opt.DecodeWorkers)
	st.builtKey, st.built = key, ix
	return ix
}

// readShards reads and parses the given index droppings, collecting one
// error per failed shard (joined) instead of failing on the first.  The
// returned slice is aligned with refs.
//
// Two execution plans preserve the simulator's invariants.  When every
// volume advertises ConcurrentIO, whole shards — open, read, decode —
// fan out across the worker pool and the virtual-time parse charge is
// applied once, summed, on the caller's goroutine.  Otherwise backend
// calls and per-shard charges stay on the caller's goroutine (the
// discrete-event engine requires blocking operations there) and only the
// pure-CPU decode of uncached shards fans out.  Either way the total
// virtual time charged is identical to the serial baseline.
func (r *Reader) readShards(refs []shardRef) ([][]Rec, error) {
	dsp := r.sp.Child("decode")
	defer dsp.End()
	m, ctx := r.m, r.ctx
	st := m.stateOf(r.rel, ctx.Tenant)
	w := m.opt.DecodeWorkers
	pol := m.opt.Retry
	out := make([][]Rec, len(refs))
	errs := make([]error, len(refs))

	if r.fan > 1 {
		var reads, bytes, entries int64
		parallelFor(w, len(refs), func(i int) {
			ref := refs[i]
			pl, size, err := m.readIndexReplicated(ctx, ref.Ref.Index, pol)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", ref.Ref.Index, err)
				return
			}
			atomic.AddInt64(&reads, 1)
			atomic.AddInt64(&bytes, size)
			atomic.AddInt64(&entries, size/EntryBytes)
			st.mu.Lock()
			cached, ok := st.parsed[ref.Ref.Index]
			st.mu.Unlock()
			if ok {
				out[i] = withDropping(cached, ref.ID)
				return
			}
			es, err := decodeIndexDropping(pl.Materialize(), ref.ID)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", ref.Ref.Index, err)
				return
			}
			m.storeParsed(st, ref.Ref.Index, es)
			out[i] = es
		})
		r.Stats.IndexReads += int(reads)
		r.Stats.IndexBytes += bytes
		ctx.sleep(m.opt.ParseCPUPerEntry * timeDuration(int(entries)))
	} else {
		raw := make([][]byte, len(refs))
		for i, ref := range refs {
			pl, size, err := m.readIndexReplicated(ctx, ref.Ref.Index, pol)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", ref.Ref.Index, err)
				continue
			}
			r.Stats.IndexReads++
			r.Stats.IndexBytes += size
			ctx.sleep(m.opt.ParseCPUPerEntry * timeDuration(int(size/EntryBytes)))
			st.mu.Lock()
			cached, ok := st.parsed[ref.Ref.Index]
			st.mu.Unlock()
			if ok {
				out[i] = withDropping(cached, ref.ID)
				continue
			}
			if raw[i] = pl.Materialize(); raw[i] == nil {
				raw[i] = []byte{}
			}
		}
		parallelFor(w, len(refs), func(i int) {
			if raw[i] == nil || errs[i] != nil {
				return
			}
			es, err := decodeIndexDropping(raw[i], refs[i].ID)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", refs[i].Ref.Index, err)
				return
			}
			out[i] = es
		})
		for i, es := range out {
			if es != nil && raw[i] != nil {
				m.storeParsed(st, refs[i].Ref.Index, es)
			}
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

// readShard reads and parses one index dropping, assigning it the
// canonical dropping id.  Parsed records are cached per path (droppings
// are immutable), so repeated opens decode once per process group.
func (r *Reader) readShard(ref droppingRef, id int32) ([]Rec, error) {
	m, ctx := r.m, r.ctx
	st := m.stateOf(r.rel, ctx.Tenant)
	pl, size, err := m.readIndexReplicated(ctx, ref.Index, m.opt.Retry)
	if err != nil {
		return nil, err
	}
	r.Stats.IndexReads++
	r.Stats.IndexBytes += size
	ctx.sleep(m.opt.ParseCPUPerEntry * timeDuration(int(size/EntryBytes)))

	st.mu.Lock()
	cached, ok := st.parsed[ref.Index]
	st.mu.Unlock()
	if ok {
		return withDropping(cached, id), nil
	}
	recs, err := decodeIndexDropping(pl.Materialize(), id)
	if err != nil {
		// The sole caller (Check) prefixes the dropping path itself.
		return nil, err
	}
	m.storeParsed(st, ref.Index, recs)
	return recs, nil
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

// aggregateOriginal is the paper's original design: this process alone
// lists the container and reads every index dropping (N readers each
// doing this produce the N² open storm of Fig. 3a).  Only the serial
// (no-communicator) path consults the cross-open cache; collective
// Original opens model the paper's uncoordinated baseline and must not
// share state between ranks.
func (r *Reader) aggregateOriginal() error {
	if r.ctx.Comm == nil {
		if ix := r.cacheGet(); ix != nil {
			r.ix = ix
			return nil
		}
	}
	lsp := r.sp.Child("list")
	if ix, err := r.tryGlobalIndex(); err != nil || ix != nil {
		lsp.End()
		r.ix = ix
		r.Stats.UsedGlobal = ix != nil
		return err
	}
	drops, err := r.m.listDroppings(r.ctx, r.rel)
	lsp.End()
	if err != nil {
		return err
	}
	paths := make([]string, len(drops))
	refs := make([]shardRef, 0, len(drops))
	for i, d := range drops {
		paths[i] = d.Data
		if d.Index == "" && !r.m.fillMissingIndex(r.ctx, &d) {
			continue
		}
		refs = append(refs, shardRef{Ref: d, ID: int32(i)})
	}
	shards, err := r.readShards(refs)
	if err != nil {
		return err
	}
	r.ix = r.buildShards(shards, paths)
	return nil
}

// aggregateFlatten reads the global index at rank 0 and broadcasts it
// (Fig. 3b).  If no global index exists (a writer overflowed the
// threshold, or the file was written without flattening), it falls back
// to Parallel Index Read.  A rank-0 hit in the cross-open cache rides
// the existing header broadcast: the mount cache is process-shared
// memory, so handing peers the pointer costs no modeled transport.
func (r *Reader) aggregateFlatten() error {
	c := r.ctx.Comm
	type hdr struct {
		errs    string
		missing bool
		nbytes  int64
		cached  *Index
	}
	type material struct {
		paths []string
		recs  []Rec
	}
	var hv, mv any
	lsp := r.sp.Child("list")
	if c.Rank() == 0 {
		if ix := r.cacheGet(); ix != nil {
			hv = hdr{cached: ix}
		} else {
			ix, err := r.tryGlobalIndex()
			switch {
			case err != nil:
				hv = hdr{errs: err.Error()}
			case ix == nil:
				hv = hdr{missing: true}
			default:
				recs := flattenRecsOf(ix)
				hv = hdr{nbytes: recsWireLen(recs)}
				mv = material{paths: ix.Droppings(), recs: recs}
			}
		}
	}
	lsp.End()
	xsp := r.sp.Child("exchange")
	h := c.Bcast(0, 24, hv).(hdr)
	if h.errs != "" {
		xsp.End()
		return errors.New(h.errs)
	}
	if h.cached != nil {
		xsp.End()
		r.ix = h.cached
		r.Stats.CacheHit = true
		return nil
	}
	if h.missing {
		xsp.End()
		r.Stats.Mode = ParallelIndexRead
		return r.aggregateParallel()
	}
	r.Stats.UsedGlobal = true
	got := c.Bcast(0, h.nbytes, mv).(material)
	xsp.End()
	r.ix = r.buildShards([][]Rec{got.recs}, got.paths)
	return nil
}

// parallel-read shard transport.
type shardMsg struct {
	ID   int32
	Recs []Rec
}

// aggregateParallel implements Parallel Index Read (Fig. 3c): ranks are
// partitioned into groups; members read disjoint subsets of the index
// droppings; group leaders merge, exchange with the other leaders, and
// broadcast the global set within their groups.  The container is opened
// N times instead of N².
func (r *Reader) aggregateParallel() error {
	m, ctx := r.m, r.ctx
	c := ctx.Comm

	// Rank 0 lists the container (and checks the cross-open cache and
	// for a flattened index).
	type hdr struct {
		global bool
		errs   string
		ndrops int
		cached *Index
	}
	var hv, dv any
	lsp := r.sp.Child("list")
	if c.Rank() == 0 {
		if ix := r.cacheGet(); ix != nil {
			hv = hdr{cached: ix}
		} else if ix, err := r.tryGlobalIndex(); err != nil {
			hv = hdr{errs: err.Error()}
		} else if ix != nil {
			hv = hdr{global: true}
		} else if drops, err := m.listDroppings(ctx, r.rel); err != nil {
			hv = hdr{errs: err.Error()}
		} else {
			hv = hdr{ndrops: len(drops)}
			dv = drops
		}
	}
	lsp.End()
	xsp := r.sp.Child("exchange")
	first := c.Bcast(0, 24, hv).(hdr)
	if first.errs != "" {
		xsp.End()
		return errors.New(first.errs)
	}
	if first.cached != nil {
		xsp.End()
		r.ix = first.cached
		r.Stats.CacheHit = true
		return nil
	}
	if first.global {
		xsp.End()
		// A flattened index exists: serve everyone from it.
		r.Stats.Mode = IndexFlatten
		return r.aggregateFlatten()
	}
	drops, _ := c.Bcast(0, int64(first.ndrops)*96, dv).([]droppingRef)
	xsp.End()

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
	xsp = r.sp.Child("exchange")
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

	// Members read their assigned subindices through the worker pool.
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
		for _, ev := range exchanged {
			all = append(all, ev.([]shardMsg)...)
		}
	}
	// Leader first announces the merged size so every forwarding hop in
	// the broadcast tree charges the true volume.
	var allBytes int64
	for _, sm := range all {
		allBytes += recsWireLen(sm.Recs)
	}
	allBytes = group.Bcast(0, 8, allBytes).(int64)
	all = group.Bcast(0, allBytes, all).([]shardMsg)
	xsp.End()

	// Every rank holds the same all and drops; the job-sized shard and
	// path tables are laid out only by the rank that builds.
	total, last := 0, ""
	for _, sm := range all {
		total += len(sm.Recs)
	}
	if len(drops) > 0 {
		last = drops[len(drops)-1].Data
	}
	r.ix = r.buildCached(len(drops), total, last, func() ([][]Rec, []string) {
		shards := make([][]Rec, len(all))
		for i, sm := range all {
			shards[i] = sm.Recs
		}
		paths := make([]string, len(drops))
		for i, d := range drops {
			paths[i] = d.Data
		}
		return shards, paths
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
	f, err := r.ctx.openReadRetried(r.ctx.Vols[r.m.volOfPath(p)], p, r.m.opt.Retry)
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
// its batch during reassembly.  Over backends that advertise
// ConcurrentIO the batches fan out across the worker pool; under the
// simulator (or with DecodeWorkers 1) they issue serially on the
// caller's goroutine, as the discrete-event engine requires.  The plan
// itself is identical either way.
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
	r.ReadStats.Ops++
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
		r.ReadStats.VecSegs++
	}
	if obs := r.ctx.Obs; obs != nil {
		defer obs.Timer("plfs.readat")()
		obs.Counter("plfs.read.vec_ops").Add(1)
		obs.Counter("plfs.read.vec_segs").Add(int64(len(segs)))
		obs.Counter("plfs.read.bytes").Add(total)
	}
	r.ReadStats.VecOps++
	return r.readPieces(r.pbuf)
}

// readPieces executes the lookup result of one ReadAt/ReadAtv call:
// plans physical batches, issues them (fanned out when the backend
// allows), and reassembles the pieces in order.
func (r *Reader) readPieces(pieces []Piece) (payload.List, error) {
	r.ReadStats.Pieces += len(pieces)
	for _, p := range pieces {
		if p.Dropping < 0 {
			r.ReadStats.Holes++
		}
	}
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

// notePhys books the physical reads one call issues: batches backend
// reads fetching phys bytes, want of which the caller asked for.
func (r *Reader) notePhys(batches int, phys, want int64) {
	r.ReadStats.Batches += batches
	r.ReadStats.PhysBytes += phys
	r.ReadStats.SieveWasted += phys - want
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
	r.notePhys(1, p.Length, p.Length)
	r.ReadStats.Workers = r.fan
	return r.readExtent(p.Dropping, p.PhysOff, p.Length)
}

// readExtent is one backend read of a dropping under the retry policy.
// It only reads the handle cache once the handle is open, so batches whose
// handles were opened up front may call it from the worker pool.
func (r *Reader) readExtent(drop int32, phys, n int64) (payload.List, error) {
	f, err := r.handle(drop)
	if err != nil {
		return nil, err
	}
	var pl payload.List
	err = r.ctx.retry(r.m.opt.Retry, func() error {
		var e error
		pl, e = f.ReadAt(phys, n)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.ix.Droppings()[drop], err)
	}
	return pl, nil
}

// readPlanned is the general plan: sieving batches, fanned out when the
// backend allows, pieces sliced back out of their batches in order.
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
	r.notePhys(len(batches), phys, want)

	// Open handles up front on this goroutine: the handle cache is not
	// goroutine-safe, and backend File handles are reused across batches.
	for _, b := range batches {
		if _, err := r.handle(b.drop); err != nil {
			return nil, err
		}
	}
	parts := make([]payload.List, len(batches))
	readBatchAt := func(i int) (err error) {
		parts[i], err = r.readExtent(batches[i].drop, batches[i].phys, batches[i].length)
		return err
	}
	r.ReadStats.Workers = r.fan
	if r.fan == 1 {
		// Serial plan: consecutive batches against the same dropping (the
		// planner emits them sorted) collapse into one vectored backend
		// read — list I/O on the read side.
		for i, j := 0, 0; i < len(batches); i = j {
			j = i + 1
			for j < len(batches) && batches[j].drop == batches[i].drop {
				j++
			}
			if j-i == 1 {
				if err := readBatchAt(i); err != nil {
					return nil, err
				}
				continue
			}
			segs := make([]extent.Ext, j-i)
			for k := i; k < j; k++ {
				segs[k-i] = extent.Ext{Off: batches[k].phys, Len: batches[k].length}
			}
			var pl payload.List
			err := r.ctx.retry(r.m.opt.Retry, func() error {
				var e error
				pl, e = r.handles[batches[i].drop].ReadvAt(segs)
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.ix.Droppings()[batches[i].drop], err)
			}
			var pos int64
			for k := i; k < j; k++ {
				parts[k] = pl.Slice(pos, batches[k].length)
				pos += batches[k].length
			}
		}
	} else {
		errs := make([]error, len(batches))
		parallelFor(r.fan, len(batches), func(i int) { errs[i] = readBatchAt(i) })
		if err := errors.Join(errs...); err != nil {
			return nil, err
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
	r.ReadStats.Workers = 1
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
			r.ReadStats.ChecksumErrors++
			if obs := r.ctx.Obs; obs != nil {
				dp := r.ix.Droppings()[piece.Dropping]
				obs.Counter("plfs.read.checksum_zero_fill").Add(1)
				obs.Counter("plfs.read.checksum_zero_fill." + r.m.roots[r.m.volOfPath(dp)]).Add(1)
			}
			out = out.Append(payload.Zeros(piece.Length))
			continue
		}
		r.ReadStats.Batches++
		r.ReadStats.PhysBytes += piece.Length
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

// aggregateSerial is the Mount-level helper used by Stat when no size
// record exists: an Original-style aggregation without a Reader.
func (m *Mount) aggregateSerial(ctx Ctx, rel string, drops []droppingRef) (*Index, error) {
	r := m.newReader(ctx, rel)
	paths := make([]string, len(drops))
	refs := make([]shardRef, 0, len(drops))
	for i, d := range drops {
		paths[i] = d.Data
		if d.Index == "" && !m.fillMissingIndex(ctx, &d) {
			continue
		}
		refs = append(refs, shardRef{Ref: d, ID: int32(i)})
	}
	shards, err := r.readShards(refs)
	if err != nil {
		return nil, err
	}
	return r.buildShards(shards, paths), nil
}

// Flatten aggregates an existing container's index droppings into a
// persistent global index (the plfs_flatten_index administrative tool):
// subsequent read opens, in any mode, serve from the single flattened
// file instead of re-aggregating — useful for write-once, read-many
// data.  It is idempotent; a second call is a cheap no-op.
func (m *Mount) Flatten(ctx Ctx, rel string) error {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	r := m.newReader(ctx, rel)
	if ix, err := r.tryGlobalIndex(); err != nil {
		return err
	} else if ix != nil {
		return nil // already flattened
	}
	drops, err := m.listDroppings(ctx, rel)
	if err != nil {
		return err
	}
	ix, err := m.aggregateSerial(ctx, rel, drops)
	if err != nil {
		return err
	}
	recs := flattenRecsOf(ix)
	ctx.sleep(m.opt.ParseCPUPerEntry * timeDuration(len(recs)))
	buf := encodeGlobalIndexRecs(ix.Droppings(), recs)
	if m.opt.Checksum {
		buf = appendSumTrailer(buf, gidxSumMagic)
	}
	// Atomic commit; a rename refused because another flattener already
	// published is fine — same container, same flattened content.
	cpath, _ := m.containerPath(rel)
	if err := m.commitReplicated(ctx, path.Join(cpath, metaDir, globalIndex), buf, m.opt.Retry, false); err != nil {
		return err
	}
	// The flattened index changes what future opens should report
	// (UsedGlobal); drop any cached pre-flatten aggregation.
	m.ixc.drop(m.ckey(rel))
	return nil
}
