package plfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plfs/internal/comm"
	"plfs/internal/obs"
)

// Mode selects the index aggregation strategy (§IV of the paper).
type Mode int

const (
	// Original is the uncoordinated design: every reading process opens
	// and reads every index dropping itself (N² opens for N processes).
	Original Mode = iota
	// IndexFlatten aggregates the global index once, at write close:
	// writers buffer index entries, gather them to rank 0, and persist a
	// single global index that read-open merely broadcasts.
	IndexFlatten
	// ParallelIndexRead aggregates at read open with a two-level
	// group/leader hierarchy: members read disjoint subsets of the index
	// droppings, leaders merge and exchange, then broadcast (N opens).
	ParallelIndexRead
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Original:
		return "original"
	case IndexFlatten:
		return "index-flatten"
	case ParallelIndexRead:
		return "parallel-index-read"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Container layout names (Fig. 1 of the paper).
const (
	accessFile    = ".plfsaccess"
	metaDir       = "meta"
	openHostsDir  = "openhosts"
	hostdirPrefix = "hostdir."
	metalinkSufx  = ".metalink"
	globalIndex   = "global.index"
	dataPrefix    = "dropping.data."
	indexPrefix   = "dropping.index."
	sizePrefix    = "sz."
	genPrefix     = "gen."
)

// Options configure a PLFS mount.
type Options struct {
	// NumSubdirs is the number of hostdir subdirectories per container
	// (default 32).
	NumSubdirs int
	// SpreadContainers hashes each container onto one of the mount's
	// volumes (federated metadata technique 1, for N-N workloads).
	SpreadContainers bool
	// SpreadSubdirs hashes each container's hostdirs across volumes
	// (federated metadata technique 2, for the physical N-N created from
	// logical N-1 workloads; Fig. 6).
	SpreadSubdirs bool
	// IndexMode selects the read-open aggregation strategy.
	IndexMode Mode
	// FlattenThreshold is the per-process buffered-entry limit for
	// IndexFlatten (default 65536); if any process exceeds it, the global
	// index is not built and readers fall back.
	FlattenThreshold int
	// GroupSize is the member count per group for ParallelIndexRead;
	// 0 picks ~sqrt(N) for a balanced two-level hierarchy.
	GroupSize int
	// NoIndexCompression disables write-side index compression.  By
	// default (like real PLFS) an index record that exactly continues the
	// previous one — logically and physically — extends it instead of
	// appending a new record, so segmented writers produce tiny indexes
	// while strided writers keep one record per operation.
	NoIndexCompression bool
	// NoRunCompression disables run detection at index flush.  By default
	// a writer's arithmetic runs — constant-stride sequences of entries
	// with equal lengths and contiguous physical placement, the shape of
	// strided checkpoints — are persisted as single run records, so a
	// K-operation strided phase costs O(1) index bytes instead of 40·K
	// (see DESIGN.md §12).  Disabling emits one v1-style record per entry.
	NoRunCompression bool
	// NoIndexCache disables the cross-open index cache.  By default each
	// Mount keeps recently built global indexes keyed by container
	// generation, so re-opening an unchanged container skips listing,
	// reading, and merging index droppings entirely; any mutation (write
	// open, write close, truncate, rename, recover) advances the
	// generation and the stale aggregation can never be served.
	NoIndexCache bool
	// IndexCacheBytes bounds the resident bytes of the cross-open index
	// cache (default 64 MiB); least-recently-used containers are evicted
	// to stay under budget.
	IndexCacheBytes int64
	// SieveGap is the data-sieving threshold for ReadAt coalescing: two
	// pieces of the same dropping whose physical extents are within this
	// many bytes merge into one backend read, trading wasted gap bytes
	// (tracked in ReadStats.SieveWasted) for fewer I/Os.  0, the default,
	// still merges exactly-adjacent pieces.
	SieveGap int64
	// ParseCPUPerEntry charges CPU for decoding index records from their
	// droppings (default 500ns/entry); MergeCPUPerEntry charges CPU for
	// resolving raw records into the global offset map (default 2µs/entry,
	// the dominant open-time CPU term at scale).  Both are charged through
	// the context's Sleeper.
	ParseCPUPerEntry time.Duration
	MergeCPUPerEntry time.Duration
	// DecodeWorkers bounds the worker pool used for real-CPU parallelism
	// on the read path: concurrent index-dropping decode during
	// aggregation, per-shard sorting in the index build, and fan-out of
	// ReadAt data fetches.  0 (the default) means one worker per available
	// CPU; 1 forces the serial baseline (shards keyed and sorted one after
	// another, and the serial ReadAt plan the A/B tests compare against;
	// the built index is the same for any value).  Fan-out also
	// disables itself over stores without ConcurrentIO, such as the
	// simulator.  Simulated virtual time is unaffected — the pool only
	// changes wall-clock cost.
	DecodeWorkers int
	// Retry reissues dropping opens/reads/appends that fail with
	// transient errors, with exponential backoff charged through the
	// context's Sleeper (virtual time under the simulator, real sleep
	// over osfs).  The zero value disables retrying.
	Retry RetryPolicy
	// AllowPartial lets OpenReader skip index shards that stay unreadable
	// after retries instead of failing the whole open; skipped shards are
	// recorded in OpenStats.SkippedShards and their extents read as holes.
	AllowPartial bool
	// NoDataFraming disables the recovery footer each writer appends to
	// its data dropping at close.  The footer is what lets Recover rebuild
	// a lost or corrupt index dropping from the data alone; disable it
	// only to produce byte-exact legacy (pre-framing) containers.
	NoDataFraming bool
	// Checksum enables checksummed framing: index droppings, the global
	// index, and the recovery footer are written with CRC32C trailers,
	// and the footer carries one CRC32C per data extent.  Verification is
	// automatic wherever a trailer is present (the formats are
	// self-describing), so this only selects what gets written.
	Checksum bool
	// VerifyData makes ReadAt verify the per-extent data checksums
	// recorded by Checksum writers before returning bytes (end-to-end
	// read integrity).  A mismatched extent fails the read — or, under
	// AllowPartial, reads as zeros and is counted in
	// ReadStats.ChecksumErrors.  Droppings without checksummed footers
	// are served unverified.
	VerifyData bool
	// ChecksumCPUPerMB charges CPU for checksumming written data
	// (default 1ms/MB, roughly memory-bandwidth CRC32C) through the
	// context's Sleeper, so the ablation figure sees the cost in
	// simulated mode.
	ChecksumCPUPerMB time.Duration
	// IndexReplicas commits each index dropping and global index to this
	// many distinct volumes (clamped to the volume count; 0 or 1 keeps a
	// single copy).  Replica k of a primary on volume v lands at the same
	// relative path on volume (v+k) mod V via the writeFileAtomic
	// protocol, primary first; readers fail over replica-by-replica
	// before AllowPartial gets to skip a shard.  See DESIGN.md §15.
	IndexReplicas int
	// BulkCreate coalesces the per-rank creates of a collective Create
	// into one bulk-create RPC per volume: rank 0 gathers every rank's
	// hostdir/dropping targets, ships them through the backend's
	// BulkCreator capability, and broadcasts the verdict; ranks then
	// attach to their pre-created droppings with OpenWrite (the wide
	// read-path pool) instead of Create (the narrow mutation pool).
	// Ignored when the backend lacks BulkCreator or there is no
	// communicator.  The batched path also honors rebalance forwarding
	// markers, so post-migration writers follow their hostdirs.
	BulkCreate bool
	// HedgedReads enables the self-healing read/placement policy: index
	// reads whose volume breaker is open go to a replica first, reads
	// slower than the volume's rolling p99 window reissue against a
	// replica and take the first success (plfs.read.hedged/hedge_wins
	// counters), and writers steer new droppings away from open-breaker
	// volumes.  Requires a health table (any Service mount has one).
	HedgedReads bool
}

func (o Options) withDefaults() Options {
	if o.NumSubdirs <= 0 {
		o.NumSubdirs = 32
	}
	if o.FlattenThreshold <= 0 {
		o.FlattenThreshold = 65536
	}
	if o.ParseCPUPerEntry <= 0 {
		o.ParseCPUPerEntry = 500 * time.Nanosecond
	}
	if o.MergeCPUPerEntry <= 0 {
		o.MergeCPUPerEntry = 2 * time.Microsecond
	}
	if o.ChecksumCPUPerMB <= 0 {
		o.ChecksumCPUPerMB = time.Millisecond
	}
	if o.IndexCacheBytes <= 0 {
		o.IndexCacheBytes = 64 << 20
	}
	// Resolved once per mount: runtime.GOMAXPROCS takes the scheduler lock,
	// which is not a cost to pay on every read.
	o.DecodeWorkers = defaultWorkers(o.DecodeWorkers)
	return o
}

// Ctx carries one process's bindings: its backend handles (one per
// volume), identity, clock, and optional communicator.  Collective PLFS
// operations (Create, OpenReader, Writer.Close, Reader.Close) must be
// called by every rank of Ctx.Comm when it is non-nil.
type Ctx struct {
	// Vols holds this process's backend handle for each mount volume.
	Vols []Backend
	// Rank and Host identify the process; HostLeader marks the lowest
	// rank on its host (it maintains the openhosts record).
	Rank       int
	Host       int
	HostLeader bool
	// Clock stamps index records.
	Clock Clock
	// Sleep charges CPU time for index parsing (nil = no charge).
	Sleep Sleeper
	// Comm enables the collective optimizations; nil means serial mode
	// (the FUSE-style interface), which always uses Original aggregation.
	Comm comm.Comm
	// Tenant names the job this process belongs to when the mount is
	// served by a Service: cache charges are attributed to it and the
	// admission gate of its class bounds the ops it may have in flight.
	// Empty means the default tenant.
	Tenant string
	// Obs, when non-nil, receives op-level metrics and spans (see
	// internal/obs and DESIGN.md §11): open/close/recover/scrub phase
	// spans, per-op latency histograms, and retry counters.  Nil disables
	// all instrumentation at zero cost.
	Obs *obs.Registry

	// observed marks Vols as already carrying the mount's health
	// interceptor (healthCtx), so nested entry points wrap once.
	observed bool
}

func (c Ctx) now() int64 {
	if c.Clock != nil {
		return c.Clock.Now()
	}
	return time.Now().UnixNano()
}

func (c Ctx) sleep(d time.Duration) {
	if c.Sleep != nil && d > 0 {
		c.Sleep.Sleep(d)
	}
}

// Mount is a PLFS mount point: shared configuration plus the cross-process
// index cache.  Backend handles live in Ctx, so one Mount serves any
// number of processes.  A standalone Mount (NewMount) owns a private
// cache economy; a Mount built by Service.Mount shares the service's
// economy, index cache, and admission gates with every other mount the
// service serves.
type Mount struct {
	roots  []string
	opt    Options
	svc    *Service    // non-nil when attached to a mount service
	econ   *economy    // cache budget (shared under a service)
	ixc    *indexCache // cross-open index cache (see ixcache.go)
	id     string      // cache-key prefix within a shared service cache
	health *Health     // per-volume breakers (shared under a service)

	// Per-container state lives in a sharded table so unrelated
	// containers never contend: steady-state lookups take only a shard's
	// read lock, and all heavy per-container work happens under that
	// container's own mutex.
	shards [stateShards]stateShard
}

const stateShards = 16

type stateShard struct {
	mu sync.RWMutex
	m  map[string]*containerState
}

// stateOverhead is the nominal resident charge for one containerState's
// fixed bookkeeping, so idle empty states participate in the budget and
// a long-lived service cannot leak the table itself.
const stateOverhead = 256

// recBytes approximates one parsed Rec's in-memory footprint.
const recBytes = 64

func recsResident(recs []Rec) int64 { return int64(len(recs))*recBytes + 64 }

// containerState caches parsed index shards and built global indexes.
// Droppings are immutable once written (log structure), so cached shards
// never go stale; the generation invalidates built indexes when new
// writers attach.  Parsed bytes are charged to the economy; under budget
// pressure unpinned states are evicted wholesale (Mount.reclaim), which
// also invalidates the container's cross-open cache entry — a recreated
// state restarts at generation 0, so any entry published under the old
// generation sequence must not survive the reset.
type containerState struct {
	mu       sync.Mutex
	gen      uint64
	pins     int  // active writers/readers; pinned states are never evicted
	evicted  bool // no longer in the table; bytes already returned
	tenant   string
	bytes    int64 // parsed-shard bytes charged to the economy
	parsed   map[string][]Rec
	builtKey builtKey
	built    *Index

	last atomic.Uint64 // economy tick of last touch (LRU for eviction)
}

// builtKey identifies the aggregation containerState.built was built from.
type builtKey struct {
	gen           uint64
	ndrops, total int
	last          string // path of the last data dropping
}

// curGen returns the container's current in-memory generation.
func (st *containerState) curGen() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// NewMount creates a standalone mount over the given per-volume backend
// root paths, with a private cache economy budgeted by
// Options.IndexCacheBytes.
func NewMount(roots []string, opt Options) *Mount {
	return newMount(roots, opt, nil)
}

func newMount(roots []string, opt Options, svc *Service) *Mount {
	if len(roots) == 0 {
		panic("plfs: mount needs at least one volume root")
	}
	opt = opt.withDefaults()
	m := &Mount{roots: roots, opt: opt, svc: svc}
	for i := range m.shards {
		m.shards[i].m = map[string]*containerState{}
	}
	if svc != nil {
		m.econ, m.ixc = svc.econ, svc.ixc
		m.id = svc.nextMountID()
		m.health = svc.health
	} else {
		m.econ = newEconomy(opt.IndexCacheBytes)
		m.ixc = newIndexCache(m.econ)
		m.econ.register(m.ixc)
		if opt.HedgedReads || opt.IndexReplicas > 1 {
			m.health = NewHealth(HealthConfig{})
		}
	}
	m.econ.register(m)
	return m
}

// ckey is rel's key in the (possibly shared) cross-open index cache.
func (m *Mount) ckey(rel string) string {
	if m.id == "" {
		return rel
	}
	return m.id + rel
}

// DropIndexCache empties the mount's cross-open index cache (harness
// cold-start control; the next open of any container re-aggregates).
// Under a service only this mount's entries are dropped.
func (m *Mount) DropIndexCache() {
	if m.id == "" {
		m.ixc.clear()
	} else {
		m.ixc.dropPrefix(m.id)
	}
}

// EconomyStats reports the cache economy's usage (shared when the mount
// is served by a Service).
func (m *Mount) EconomyStats() EconomyStats { return m.econ.stats() }

// Volumes returns the number of metadata volumes behind the mount.
func (m *Mount) Volumes() int { return len(m.roots) }

// Root returns volume i's backend root path.
func (m *Mount) Root(i int) string { return m.roots[i] }

// Options returns the mount options (with defaults applied).
func (m *Mount) Options() Options { return m.opt }

func (m *Mount) shard(rel string) *stateShard {
	return &m.shards[hashStr(rel)%stateShards]
}

// stateOf returns rel's container state, creating it on first touch.
// The fast path takes only the shard's read lock, so lookups for
// unrelated containers never serialize.
func (m *Mount) stateOf(rel, tenant string) *containerState {
	sh := m.shard(rel)
	sh.mu.RLock()
	st := sh.m[rel]
	sh.mu.RUnlock()
	if st != nil {
		st.last.Store(m.econ.next())
		return st
	}
	sh.mu.Lock()
	st = sh.m[rel]
	created := st == nil
	if created {
		st = &containerState{parsed: map[string][]Rec{}, tenant: tenantName(tenant)}
		sh.m[rel] = st
	}
	st.last.Store(m.econ.next())
	sh.mu.Unlock()
	if created {
		m.econ.charge(st.tenant, stateOverhead)
		// Rebalance only when already over budget, so a create storm of
		// idle containers cannot grow the table without bound while the
		// hot path stays charge-only.
		if m.econ.overBy() > 0 {
			m.econ.rebalance()
		}
	}
	return st
}

// pin returns rel's state with its pin count raised: a pinned state is
// never evicted, which keeps the container's generation sequence
// monotone across an open or write session — the invariant the
// cross-open index cache's exact-generation check relies on.
func (m *Mount) pin(rel, tenant string) *containerState {
	for {
		st := m.stateOf(rel, tenant)
		st.mu.Lock()
		if st.evicted {
			st.mu.Unlock()
			continue // raced with eviction; the next lookup recreates it
		}
		st.pins++
		st.mu.Unlock()
		return st
	}
}

func (m *Mount) unpin(st *containerState) {
	st.mu.Lock()
	st.pins--
	st.mu.Unlock()
}

// storeParsed caches one shard's decoded records on the container state
// and charges the bytes to the economy.  An orphaned state (evicted
// while a slow aggregation still held it) is a plain scratch buffer;
// its bytes are not resident in any table, so nothing is charged.
// Call without st.mu held.
func (m *Mount) storeParsed(st *containerState, path string, recs []Rec) {
	st.mu.Lock()
	if _, dup := st.parsed[path]; dup || st.evicted {
		if !dup {
			st.parsed[path] = recs
		}
		st.mu.Unlock()
		return
	}
	st.parsed[path] = recs
	n := recsResident(recs)
	st.bytes += n
	tenant := st.tenant
	st.mu.Unlock()
	m.econ.charge(tenant, n)
	m.econ.rebalance()
}

// invalidateState advances rel's generation and drops every derived
// cache — parsed shards, built-index memo, cross-open entry — returning
// the parsed bytes to the economy (truncate, recover).
func (m *Mount) invalidateState(rel, tenant string) {
	st := m.stateOf(rel, tenant)
	st.mu.Lock()
	st.gen++
	st.builtKey, st.built = builtKey{}, nil
	st.parsed = map[string][]Rec{}
	n := st.bytes
	st.bytes = 0
	evicted := st.evicted
	owner := st.tenant
	st.mu.Unlock()
	if !evicted {
		m.econ.release(owner, n)
	}
	m.ixc.drop(m.ckey(rel))
}

// dropState removes rel's state outright (rename, unlink) and returns
// its charges to the economy.
func (m *Mount) dropState(rel string) {
	sh := m.shard(rel)
	sh.mu.Lock()
	st, ok := sh.m[rel]
	if ok {
		delete(sh.m, rel)
	}
	sh.mu.Unlock()
	if ok {
		m.releaseState(st)
	}
}

// releaseState marks st evicted and returns its resident bytes.
func (m *Mount) releaseState(st *containerState) int64 {
	st.mu.Lock()
	if st.evicted {
		st.mu.Unlock()
		return 0
	}
	st.evicted = true
	n := st.bytes + stateOverhead
	tenant := st.tenant
	st.bytes = 0
	st.parsed = map[string][]Rec{}
	st.builtKey, st.built = builtKey{}, nil
	st.mu.Unlock()
	m.econ.release(tenant, n)
	return n
}

// reclaim implements reclaimer: evict idle (unpinned) container states,
// least recently touched first, until need bytes are freed.  Eviction
// resets the container's generation sequence, so each victim's
// cross-open cache entry is dropped with it — an entry published under
// the old sequence must never be served against the new one.  The
// collection scan is O(states), acceptable on this rare path.
func (m *Mount) reclaim(need int64) int64 {
	type cand struct {
		rel  string
		st   *containerState
		last uint64
	}
	var cands []cand
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for rel, st := range sh.m {
			cands = append(cands, cand{rel, st, st.last.Load()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].last < cands[j].last })
	var freed int64
	entries := 0
	for _, c := range cands {
		if freed >= need {
			break
		}
		sh := m.shard(c.rel)
		sh.mu.Lock()
		st, ok := sh.m[c.rel]
		if !ok || st != c.st {
			sh.mu.Unlock()
			continue
		}
		// The evicted mark must be set in the same st.mu critical section
		// as the pins check: a pinner blocked on st.mu would otherwise
		// pin a state this loop is about to release.
		st.mu.Lock()
		if st.pins > 0 {
			st.mu.Unlock()
			sh.mu.Unlock()
			continue
		}
		st.evicted = true
		n := st.bytes + stateOverhead
		tenant := st.tenant
		st.bytes = 0
		st.parsed = map[string][]Rec{}
		st.builtKey, st.built = builtKey{}, nil
		st.mu.Unlock()
		delete(sh.m, c.rel)
		sh.mu.Unlock()
		m.econ.release(tenant, n)
		freed += n
		m.ixc.drop(m.ckey(c.rel))
		entries++
	}
	if entries > 0 {
		m.econ.noteEvicted(entries, freed)
	}
	return freed
}

func clean(rel string) string {
	rel = path.Clean("/" + rel)
	return strings.TrimPrefix(rel, "/")
}

func hashStr(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// containerVol returns the volume hosting the canonical container of rel.
func (m *Mount) containerVol(rel string) int {
	if !m.opt.SpreadContainers || len(m.roots) == 1 {
		return 0
	}
	return int(hashStr(rel)) % len(m.roots)
}

// subdirVol returns the volume hosting hostdir i of a container whose
// canonical volume is vc.
func (m *Mount) subdirVol(vc, i int) int {
	if !m.opt.SpreadSubdirs || len(m.roots) == 1 {
		return vc
	}
	return (vc + i) % len(m.roots)
}

// containerPath returns the canonical container directory path.
func (m *Mount) containerPath(rel string) (string, int) {
	vc := m.containerVol(rel)
	return path.Join(m.roots[vc], rel), vc
}

// hostdirPath returns the path and volume of hostdir i for container rel.
func (m *Mount) hostdirPath(rel string, i int) (string, int) {
	vc := m.containerVol(rel)
	v := m.subdirVol(vc, i)
	return path.Join(m.roots[v], rel, fmt.Sprintf("%s%d", hostdirPrefix, i)), v
}

// subdirFor maps a writer to its hostdir (real PLFS hashes by host).
func (m *Mount) subdirFor(host int) int { return host % m.opt.NumSubdirs }

// placeSubdir is subdirFor with breaker-aware placement: under
// HedgedReads a writer whose hash-assigned hostdir lands on an
// open-breaker volume walks forward to the first hostdir on a healthy
// volume, so new droppings steer around a browned-out target.  Readers
// discover droppings by listing, so placement is free to vary per open.
func (m *Mount) placeSubdir(ctx Ctx, rel string, host int) int {
	id := m.subdirFor(host)
	if m.health == nil || !m.opt.HedgedReads || len(m.roots) == 1 {
		return id
	}
	now := ctx.now()
	vc := m.containerVol(rel)
	for k := 0; k < m.opt.NumSubdirs; k++ {
		cand := (id + k) % m.opt.NumSubdirs
		// State, not Avoid: placement routes a whole dropping stream, so
		// it must never consume the half-open trial budget — a breaker
		// probe should be one cheap read, not a step's worth of writes.
		if m.health.State(m.roots[m.subdirVol(vc, cand)], now) == BreakerClosed {
			return cand
		}
	}
	return id // every volume unhealthy: original placement
}

// Health returns the mount's per-volume breaker table (nil when the
// self-healing layer is off: a standalone mount without HedgedReads or
// IndexReplicas).
func (m *Mount) Health() *Health { return m.health }

// volDegraded reports whether volume v's breaker is anything but closed
// — deferrable work (background repair, re-replication) should steer
// around it rather than grind degraded-latency operations.
func (m *Mount) volDegraded(ctx Ctx, v int) bool {
	return m.health != nil && v < len(m.roots) &&
		m.health.State(m.roots[v], ctx.now()) != BreakerClosed
}

// Mkdir creates a logical directory on every volume, so containers and
// shadow containers can be placed under it anywhere.
func (m *Mount) Mkdir(ctx Ctx, rel string) error {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	for v, root := range m.roots {
		if err := ctx.Vols[v].Mkdir(path.Join(root, rel)); err != nil && !errors.Is(err, iofs.ErrExist) {
			return err
		}
	}
	return nil
}

// IsContainer reports whether rel names a PLFS container.
func (m *Mount) IsContainer(ctx Ctx, rel string) (bool, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	cpath, vc := m.containerPath(rel)
	fi, err := ctx.Vols[vc].Stat(cpath)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	if !fi.Dir {
		return false, nil
	}
	_, err = ctx.Vols[vc].Stat(path.Join(cpath, accessFile))
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// metaGen returns a container's truncation generation: the highest
// gen.<N> marker among the metadir entries (0 when none — a container
// that was never truncated).  Size records from older generations are
// stale leftovers of a partially failed truncation and are ignored.
func metaGen(ents []Info) int64 {
	var gen int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name, genPrefix) {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(e.Name, genPrefix), 10, 64); err == nil && n > gen {
			gen = n
		}
	}
	return gen
}

// parseSizeRecord parses a metadir size-record name.  Current records
// are sz.<size>.<gen>.<rank>; legacy two-part sz.<size>.<rank> records
// parse as generation 0.
func parseSizeRecord(name string) (size, gen int64, ok bool) {
	if !strings.HasPrefix(name, sizePrefix) {
		return 0, 0, false
	}
	parts := strings.Split(strings.TrimPrefix(name, sizePrefix), ".")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, false
	}
	size, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || size < 0 {
		return 0, 0, false
	}
	if len(parts) == 3 {
		if gen, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return size, gen, true
}

// cachedSize extracts the logical size from metadir entries: the max
// over size records of the current generation only.
func cachedSize(ents []Info) (int64, bool) {
	gen := metaGen(ents)
	var size int64
	found := false
	for _, e := range ents {
		if n, g, ok := parseSizeRecord(e.Name); ok && g == gen {
			found = true
			if n > size {
				size = n
			}
		}
	}
	return size, found
}

// Stat returns the logical file info for a container: its name and the
// logical size cached in the metadir by writers at close.
func (m *Mount) Stat(ctx Ctx, rel string) (Info, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	cpath, vc := m.containerPath(rel)
	if _, err := ctx.Vols[vc].Stat(cpath); err != nil {
		return Info{}, err
	}
	ents, err := ctx.readDirRetried(ctx.Vols[vc], path.Join(cpath, metaDir), m.opt.Retry)
	if err != nil {
		return Info{}, err
	}
	size, found := cachedSize(ents)
	if !found {
		// No cached size (e.g. writers died before close): aggregate the
		// index the slow way.
		drops, err := m.listDroppings(ctx, rel)
		if err != nil {
			return Info{}, err
		}
		ix, err := m.aggregateSerial(ctx, rel, drops)
		if err != nil {
			return Info{}, err
		}
		size = ix.Size()
	}
	return Info{Name: path.Base(rel), Dir: false, Size: size}, nil
}

// ReadDir lists the logical directory rel: the union across volumes, with
// containers presented as logical files.
func (m *Mount) ReadDir(ctx Ctx, rel string) ([]Info, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	seen := map[string]Info{}
	found := false
	for v, root := range m.roots {
		ents, err := ctx.Vols[v].ReadDir(path.Join(root, rel))
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				continue
			}
			return nil, err
		}
		found = true
		for _, e := range ents {
			if _, dup := seen[e.Name]; dup {
				continue
			}
			if e.Dir {
				isC, err := m.IsContainer(ctx, path.Join(rel, e.Name))
				if err != nil {
					return nil, err
				}
				if isC {
					seen[e.Name] = Info{Name: e.Name, Dir: false}
					continue
				}
			}
			seen[e.Name] = e
		}
	}
	if !found {
		return nil, fmt.Errorf("plfs: readdir %s: %w", rel, iofs.ErrNotExist)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Info, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out, nil
}

// Rename moves a container to a new logical name.  It renames the
// container directory on every volume it touches (canonical and shadow).
// With SpreadContainers the canonical volume is a pure function of the
// name, so renames that would change the hash placement are refused —
// the same restriction rigid metadata realms impose.
func (m *Mount) Rename(ctx Ctx, oldRel, newRel string) error {
	ctx = m.healthCtx(ctx)
	oldRel, newRel = clean(oldRel), clean(newRel)
	if ok, err := m.IsContainer(ctx, oldRel); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("plfs: rename %s: not a container: %w", oldRel, iofs.ErrNotExist)
	}
	if m.containerVol(oldRel) != m.containerVol(newRel) {
		return fmt.Errorf("plfs: rename %s -> %s: names hash to different metadata volumes", oldRel, newRel)
	}
	// A federated container spans volumes (canonical + shadows); the
	// volume-by-volume rename is not atomic, so a mid-sequence failure
	// must roll back the volumes already renamed or the container is left
	// split across two logical names.
	type renamedVol struct {
		v          int
		oldP, newP string
	}
	var done []renamedVol
	for v, root := range m.roots {
		oldP, newP := path.Join(root, oldRel), path.Join(root, newRel)
		if _, err := ctx.Vols[v].Stat(oldP); err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				continue // no shadow container on this volume
			}
			return err
		}
		if err := ctx.Vols[v].Rename(oldP, newP); err != nil {
			errs := []error{fmt.Errorf("plfs: rename %s -> %s: volume %d: %w", oldRel, newRel, v, err)}
			for i := len(done) - 1; i >= 0; i-- {
				d := done[i]
				if rbErr := ctx.Vols[d.v].Rename(d.newP, d.oldP); rbErr != nil {
					errs = append(errs, fmt.Errorf("plfs: rename rollback: volume %d: %w", d.v, rbErr))
				}
			}
			return errors.Join(errs...)
		}
		done = append(done, renamedVol{v: v, oldP: oldP, newP: newP})
	}
	// A flattened global index records absolute dropping paths under the
	// old name; drop it so readers re-aggregate from the moved droppings.
	vc := m.containerVol(newRel)
	gp := path.Join(m.roots[vc], newRel, metaDir, globalIndex)
	if err := ctx.Vols[vc].Remove(gp); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	m.removeReplicas(ctx, gp)
	m.dropState(oldRel)
	m.dropState(newRel)
	m.ixc.drop(m.ckey(oldRel))
	m.ixc.drop(m.ckey(newRel))
	return nil
}

// Truncate resets a container's logical contents to empty (the O_TRUNC
// open path): droppings, size records, and any flattened index are
// removed; the container skeleton stays so open handles' paths remain
// valid namespaces.
func (m *Mount) Truncate(ctx Ctx, rel string) error {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	if ok, err := m.IsContainer(ctx, rel); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("plfs: truncate %s: not a container: %w", rel, iofs.ErrNotExist)
	}
	drops, err := m.listDroppings(ctx, rel)
	if err != nil {
		return err
	}
	for _, d := range drops {
		if err := ctx.Vols[d.Vol].Remove(d.Data); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
		if d.Index != "" {
			if err := ctx.Vols[d.Vol].Remove(d.Index); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				return err
			}
			m.removeReplicas(ctx, d.Index)
		}
	}
	cpath, vc := m.containerPath(rel)
	meta := path.Join(cpath, metaDir)
	ents, err := ctx.Vols[vc].ReadDir(meta)
	if err != nil {
		return err
	}
	gen := metaGen(ents)
	for _, e := range ents {
		if err := ctx.Vols[vc].Remove(path.Join(meta, e.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}
	// Replicas of the flattened global index must not outlive it: a
	// failover read after truncate would serve the pre-truncate index.
	m.removeReplicas(ctx, path.Join(meta, globalIndex))
	// Bump the truncation generation so size records that escape the
	// removals above (or race in from a closing writer of the previous
	// session) are recognizably stale: writers stamp new records with the
	// current generation, and Stat only believes the current one.  The
	// marker is published atomically so a crash here leaves either the
	// old generation or the new one, never a torn marker.
	if err := ctx.writeFileAtomic(ctx.Vols[vc], path.Join(meta, fmt.Sprintf("%s%d", genPrefix, gen+1)), nil, m.opt.Retry, false); err != nil {
		return err
	}
	m.invalidateState(rel, ctx.Tenant)
	return nil
}

// Unlink removes a container: droppings, hostdirs (canonical and shadow),
// metadata, and the container directories themselves.
func (m *Mount) Unlink(ctx Ctx, rel string) error {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	cpath, vc := m.containerPath(rel)
	b := ctx.Vols[vc]
	if _, err := b.Stat(path.Join(cpath, accessFile)); err != nil {
		return fmt.Errorf("plfs: unlink %s: not a container: %w", rel, err)
	}
	// Rebalance forwarding entries: remove the moved hostdir trees they
	// point at, then the marker files themselves (they are plain files in
	// the canonical container dir and would block its final Remove).
	if ents, err := b.ReadDir(cpath); err == nil {
		for _, e := range ents {
			id, _, mv, ok := parseMovedMarker(e.Name)
			if !ok || e.Dir {
				continue
			}
			if mv < len(m.roots) {
				mpath := path.Join(m.roots[mv], rel, fmt.Sprintf("%s%d", hostdirPrefix, id))
				if err := removeTree(ctx.Vols[mv], mpath); err != nil {
					return err
				}
				if mv != vc {
					_ = ctx.Vols[mv].Remove(path.Join(m.roots[mv], rel))
				}
			}
			if err := b.Remove(path.Join(cpath, e.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				return err
			}
		}
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	// Remove hostdirs on every volume they may live on.
	for i := 0; i < m.opt.NumSubdirs; i++ {
		hpath, hv := m.hostdirPath(rel, i)
		if err := removeTree(ctx.Vols[hv], hpath); err != nil {
			return err
		}
		if hv != vc {
			// Shadow container dir, if now empty, and the metalink marker.
			_ = ctx.Vols[hv].Remove(path.Join(m.roots[hv], rel))
			_ = b.Remove(path.Join(cpath, fmt.Sprintf("%s%d%s", hostdirPrefix, i, metalinkSufx)))
		}
	}
	for _, sub := range []string{metaDir, openHostsDir} {
		if err := removeTree(b, path.Join(cpath, sub)); err != nil {
			return err
		}
	}
	if err := b.Remove(path.Join(cpath, accessFile)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	if err := b.Remove(cpath); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	// Replica directories mirror the container tree on the other volumes;
	// they are invisible to dropping discovery but must not leak.
	if m.replicas() > 1 {
		for v, root := range m.roots {
			if err := removeTree(ctx.Vols[v], path.Join(root, rel)); err != nil {
				return err
			}
		}
	}
	m.dropState(rel)
	m.ixc.drop(m.ckey(rel))
	return nil
}

// removeTree removes a directory and its (flat) contents; missing paths
// are fine.
func removeTree(b Backend, dir string) error {
	ents, err := b.ReadDir(dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		sub := path.Join(dir, e.Name)
		if e.Dir {
			if err := removeTree(b, sub); err != nil {
				return err
			}
			continue
		}
		if err := b.Remove(sub); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}
	if err := b.Remove(dir); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	return nil
}

// droppingRef locates one writer's pair of droppings.
type droppingRef struct {
	Data  string // data dropping path
	Index string // index dropping path ("" if the writer left none)
	Vol   int
}

// movedInfix is the middle of a rebalance forwarding entry's name:
// hostdir.<i>.moved.<seq>.v<vol>, a plain file in the canonical container
// recording that hostdir i now lives on volume vol.  seq increments per
// migration of the same hostdir; the highest seq wins, so a crash between
// publishing a new marker and removing the old one resolves correctly.
const movedInfix = ".moved."

// movedMarkerName renders the forwarding entry for hostdir id at seq
// pointing to vol.
func movedMarkerName(id, seq, vol int) string {
	return fmt.Sprintf("%s%d%s%d.v%d", hostdirPrefix, id, movedInfix, seq, vol)
}

// parseMovedMarker inverts movedMarkerName.
func parseMovedMarker(name string) (id, seq, vol int, ok bool) {
	if !strings.HasPrefix(name, hostdirPrefix) {
		return 0, 0, 0, false
	}
	rest := strings.TrimPrefix(name, hostdirPrefix)
	idS, rest, found := strings.Cut(rest, movedInfix)
	if !found {
		return 0, 0, 0, false
	}
	seqS, volS, found := strings.Cut(rest, ".v")
	if !found {
		return 0, 0, 0, false
	}
	var err error
	if id, err = strconv.Atoi(idS); err != nil || id < 0 {
		return 0, 0, 0, false
	}
	if seq, err = strconv.Atoi(seqS); err != nil || seq < 0 {
		return 0, 0, 0, false
	}
	if vol, err = strconv.Atoi(volS); err != nil || vol < 0 {
		return 0, 0, 0, false
	}
	return id, seq, vol, true
}

// movedTarget is the winning forwarding entry for one hostdir id.
type movedTarget struct {
	Vol int
	Seq int
}

// movedTargets reduces a canonical-container listing to the highest-seq
// forwarding entry per hostdir id.
func movedTargets(ents []Info) map[int]movedTarget {
	var out map[int]movedTarget
	for _, e := range ents {
		if e.Dir {
			continue
		}
		id, seq, vol, ok := parseMovedMarker(e.Name)
		if !ok {
			continue
		}
		if out == nil {
			out = map[int]movedTarget{}
		}
		if t, dup := out[id]; !dup || seq > t.Seq {
			out[id] = movedTarget{Vol: vol, Seq: seq}
		}
	}
	return out
}

// hostdirIDs enumerates the container's hostdir ids from one readdir of
// the canonical container (hostdir directories, metalink markers for
// spread hostdirs, and rebalance forwarding entries), sorted ascending.
// moved maps a migrated hostdir id to the volume now hosting it.
func (m *Mount) hostdirIDs(ctx Ctx, rel string) (ids []int, moved map[int]int, err error) {
	cpath, vc := m.containerPath(rel)
	ents, err := ctx.readDirRetried(ctx.Vols[vc], cpath, m.opt.Retry)
	if err != nil {
		return nil, nil, err
	}
	present := map[int]bool{}
	for id, t := range movedTargets(ents) {
		if moved == nil {
			moved = map[int]int{}
		}
		moved[id] = t.Vol
		present[id] = true
	}
	for _, e := range ents {
		name := e.Name
		if strings.HasSuffix(name, metalinkSufx) {
			name = strings.TrimSuffix(name, metalinkSufx)
		} else if !e.Dir {
			continue
		}
		if !strings.HasPrefix(name, hostdirPrefix) {
			continue
		}
		if i, err := strconv.Atoi(strings.TrimPrefix(name, hostdirPrefix)); err == nil {
			present[i] = true
		}
	}
	ids = make([]int, 0, len(present))
	for i := range present {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	return ids, moved, nil
}

// hostdirLoc is one candidate location of a hostdir.
type hostdirLoc struct {
	path string
	vol  int
}

// hostdirLocs returns the locations a hostdir's droppings may live at,
// forwarding target first: a migrated hostdir is read from its new volume,
// but the hash-placed location is still consulted — it holds the originals
// until the mover finishes cleanup, and uncoordinated (non-batched)
// writers may recreate it afterwards.  Duplicate stamps resolve to the
// forwarded copy; droppings are immutable, so the copies are identical.
func (m *Mount) hostdirLocs(rel string, i int, moved map[int]int) []hostdirLoc {
	hpath, hv := m.hostdirPath(rel, i)
	mv, ok := moved[i]
	if !ok || mv == hv || mv >= len(m.roots) {
		return []hostdirLoc{{hpath, hv}}
	}
	return []hostdirLoc{
		{path.Join(m.roots[mv], rel, fmt.Sprintf("%s%d", hostdirPrefix, i)), mv},
		{hpath, hv},
	}
}

// listDroppings enumerates the container's droppings in canonical (sorted
// by data path) order, resolving spread hostdirs.  Unpublished commit
// temp files (".tmp.<rank>" names) are invisible here — an atomic commit
// that crashed before its rename must never be consumed.  Cost: one
// readdir of the canonical container plus one readdir per existing
// hostdir.
func (m *Mount) listDroppings(ctx Ctx, rel string) ([]droppingRef, error) {
	ids, moved, err := m.hostdirIDs(ctx, rel)
	if err != nil {
		return nil, err
	}
	var refs []droppingRef
	for _, i := range ids {
		// Candidate locations in precedence order (forwarding target
		// first); a stamp claimed by an earlier location shadows the same
		// stamp at a later one — mid-migration both copies exist and are
		// byte-identical, so either answer is correct, but preferring the
		// forwarded copy keeps the listing stable across the cleanup.
		byStamp := map[string]*droppingRef{}
		for _, loc := range m.hostdirLocs(rel, i, moved) {
			if hedged, ok := m.listHostdirHedged(ctx, loc.path, loc.vol); ok {
				for _, r := range hedged {
					stamp := strings.TrimPrefix(path.Base(r.Data), dataPrefix)
					if _, dup := byStamp[stamp]; !dup {
						r := r
						byStamp[stamp] = &r
					}
				}
				continue
			}
			hents, err := ctx.readDirRetried(ctx.Vols[loc.vol], loc.path, m.opt.Retry)
			if err != nil {
				if errors.Is(err, iofs.ErrNotExist) {
					continue
				}
				return nil, err
			}
			claimed := func(stamp string) *droppingRef {
				r := byStamp[stamp]
				if r == nil {
					r = &droppingRef{Vol: loc.vol}
					byStamp[stamp] = r
				} else if r.Vol != loc.vol {
					return nil // claimed by an earlier (forwarded) location
				}
				return r
			}
			for _, e := range hents {
				switch {
				case isTmpName(e.Name):
				case strings.HasPrefix(e.Name, dataPrefix):
					stamp := strings.TrimPrefix(e.Name, dataPrefix)
					if r := claimed(stamp); r != nil {
						r.Data = path.Join(loc.path, e.Name)
					}
				case strings.HasPrefix(e.Name, indexPrefix):
					stamp := strings.TrimPrefix(e.Name, indexPrefix)
					if r := claimed(stamp); r != nil {
						r.Index = path.Join(loc.path, e.Name)
					}
				}
			}
		}
		stamps := make([]string, 0, len(byStamp))
		for s := range byStamp {
			stamps = append(stamps, s)
		}
		sort.Strings(stamps)
		for _, s := range stamps {
			if r := byStamp[s]; r.Data != "" {
				refs = append(refs, *r)
			}
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Data < refs[j].Data })
	return refs, nil
}

// listHostdirHedged is dropping discovery's hedge: when the volume
// hosting a hostdir has an open breaker, the readdir itself would grind
// at degraded latency — and unlike the index reads behind it, a readdir
// has no replica to fail over to.  But the hostdir's index-dropping
// replicas live at the same container-relative path on the replica
// volumes, so listing a healthy replica directory recovers the dropping
// names without touching the sick volume.  Paths are synthesized back
// to canonical: the index read downstream then hedges normally via
// readIndexReplicated, and the data path (never replicated) stays on
// the primary for the extents that truly need it.  Returns ok=false
// when the hedge does not apply (healthy volume, no replication, or no
// replica copy found) — the caller lists the primary as usual.
func (m *Mount) listHostdirHedged(ctx Ctx, hpath string, hv int) ([]droppingRef, bool) {
	R := m.replicas()
	if R <= 1 || !m.opt.HedgedReads || m.health == nil {
		return nil, false
	}
	// State, not Avoid: discovery steers without spending the half-open
	// probe budget (the periodic scrub probes; see Health.Avoid).
	now := ctx.now()
	if m.health.State(m.roots[hv], now) == BreakerClosed {
		return nil, false
	}
	relh := strings.TrimPrefix(hpath, m.roots[hv])
	for k := 1; k < R; k++ {
		rv := (hv + k) % len(m.roots)
		if m.health.State(m.roots[rv], now) != BreakerClosed {
			continue
		}
		ents, err := ctx.readDirRetried(ctx.Vols[rv], path.Join(m.roots[rv], relh), m.opt.Retry)
		if err != nil {
			// ErrNotExist is ambiguous here: an empty hostdir and a failed
			// replication look the same, so fall through to the primary
			// rather than silently dropping shards.
			continue
		}
		var refs []droppingRef
		for _, e := range ents {
			if e.Dir || isTmpName(e.Name) || !strings.HasPrefix(e.Name, indexPrefix) {
				continue
			}
			stamp := strings.TrimPrefix(e.Name, indexPrefix)
			refs = append(refs, droppingRef{
				Vol:   hv,
				Index: path.Join(hpath, e.Name),
				Data:  path.Join(hpath, dataPrefix+stamp),
			})
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].Data < refs[j].Data })
		return refs, true
	}
	return nil, false
}
