// Package objfs implements a simulated flat key→object store and binds
// it to the PLFS Backend interface — the "object storage device" target
// the paper's §VI sketches when it argues PLFS droppings are objects in
// disguise (and the namespace ROADMAP item 4 asks for).
//
// The store is everything the simulated POSIX file system (internal/pfs)
// is not:
//
//   - a single flat namespace of keys: no directories, no per-directory
//     lock convoys, no rename serialization — a "directory" is nothing
//     but a key prefix plus a zero-byte marker object (`prefix/`);
//   - conditional PUT as the native publish primitive: put-if-absent and
//     put-if-generation replace the POSIX create-temp/rename commit
//     protocol (plfs.CondPutter), so a commit is one atomic KV operation
//     instead of four namespace mutations;
//   - listing as a bounded prefix scan: ReadDir pages through every key
//     below the prefix (ListPage keys per request), so the cost of
//     "readdir" grows with the object population under the prefix — the
//     price a flat namespace pays back for its free creates;
//   - per-object metadata overhead (MetaObjBytes) charged to every live
//     object, making the container's many-small-objects layout visible
//     in the accounting.
//
// Like internal/simfs + internal/pfs, the store runs in two modes.  New
// builds an engineless store: operations are free, handles are
// goroutine-safe, and the store drops into the osfs-style unit-test rigs.  NewSim attaches the
// store to a discrete-event engine: a KV server pool (sim.Resource)
// serializes request service, a fair-share link (sim.PSLink) carries
// object bytes, and every operation charges round-trip latency to the
// calling process — all virtual time, deterministic in the seed.
package objfs

import (
	"fmt"
	iofs "io/fs"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/sim"
)

// Errors returned by store operations.  ErrExist and ErrNotExist wrap the
// io/fs sentinels, as the plfs.Backend contract requires; the rest wrap
// the errno a POSIX file system returns for the same verdict.
var (
	ErrExist    = fmt.Errorf("objfs: %w", iofs.ErrExist)
	ErrNotExist = fmt.Errorf("objfs: %w", iofs.ErrNotExist)
	ErrNotEmpty = fmt.Errorf("objfs: prefix not empty: %w", syscall.ENOTEMPTY)
	ErrIsDir    = fmt.Errorf("objfs: key is a prefix marker: %w", syscall.EISDIR)
	ErrNotDir   = fmt.Errorf("objfs: %w", syscall.ENOTDIR)
	ErrInvalid  = fmt.Errorf("objfs: unclean path: %w", iofs.ErrInvalid)
)

// ConflictError reports a conditional PUT whose generation precondition
// failed: another writer republished the object between our HEAD and PUT.
// It is transient — the losing writer re-reads the current generation and
// retries — and the plfs retry policy recognizes it via Transient().
type ConflictError struct {
	Key  string
	Want int64 // the generation the PUT was conditioned on
	Have int64 // the generation actually found
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("objfs: conditional put conflict on %s (want gen %d, have %d)", e.Key, e.Want, e.Have)
}

// Transient reports that a retry may succeed (the plfs retry policy's
// classification hook).
func (e *ConflictError) Transient() bool { return true }

// Generation preconditions for Store.put.
const (
	// genAny applies the PUT unconditionally.
	genAny int64 = -1
	// genAbsent requires that the key not exist (put-if-absent).
	genAbsent int64 = 0
)

// Config calibrates the simulated object store.  The defaults are chosen
// against pfs.SmallCluster so a posix-vs-objfs comparison is
// apples-to-apples: the same shared data bandwidth, but KV-style
// metadata — individually pricier round trips with no per-directory
// serialization behind them.
type Config struct {
	// KVServers is the parallel service capacity of the metadata/KV
	// tier.  There is no per-directory lock in front of it: the create
	// storm that convoys on a POSIX directory fans out here.
	KVServers int

	// Service times per request class.
	PutOp    time.Duration // conditional PUT / part upload (metadata commit)
	GetOp    time.Duration // GET request setup
	HeadOp   time.Duration // HEAD (stat)
	DeleteOp time.Duration // DELETE
	ListOp   time.Duration // LIST, per page
	ListKey  time.Duration // LIST, per key scanned within a page

	// ListPage bounds a prefix scan: a listing of n keys costs
	// ceil(n/ListPage) paged LIST requests.
	ListPage int

	// ListInflight bounds LIST pages outstanding store-wide.  A
	// 100k-dropping container lists as ~100 pages per reader, and a wide
	// collective open fans out one such scan per rank; without
	// backpressure those pages monopolize the KV pool and starve
	// everything else.  Excess pages queue at the admission gate instead
	// (0 disables the bound; engineless stores never block).
	ListInflight int

	// RTT is the per-request round-trip latency (the HTTP-ish overhead
	// every object operation pays, typically above a POSIX RPC's).
	RTT time.Duration

	// DataBW is the shared object-data bandwidth in bytes/sec (the same
	// pipe pfs.Config.StorageBW models).
	DataBW float64

	// MetaObjBytes is the per-object metadata footprint charged to every
	// live object — the accounting that makes a container's
	// many-small-objects layout visible (the objfs.meta_bytes gauge).
	MetaObjBytes int64

	// JitterFrac perturbs every service time by ±frac (uniform).
	JitterFrac float64
}

// DefaultConfig approximates an on-premise object store fronting the
// same storage as pfs.SmallCluster: identical shared bandwidth, higher
// per-request latency, wide flat metadata.
func DefaultConfig() Config {
	return Config{
		KVServers:    32,
		PutOp:        400 * time.Microsecond,
		GetOp:        150 * time.Microsecond,
		HeadOp:       120 * time.Microsecond,
		DeleteOp:     300 * time.Microsecond,
		ListOp:       600 * time.Microsecond,
		ListKey:      3 * time.Microsecond,
		ListPage:     1000,
		ListInflight: 8,
		RTT:          250 * time.Microsecond,
		DataBW:       1.25e9,

		MetaObjBytes: 512,
		JitterFrac:   0.05,
	}
}

// object is one stored value: sparse payload-backed data plus the
// metadata a conditional PUT conditions on.
type object struct {
	data payload.File
	gen  int64 // bumped on every mutation; conditional PUTs compare it
}

// Store is the flat key→object map.  An engineless store (New) is safe
// for concurrent use from multiple goroutines; a sim-bound store
// (NewSim) must be driven from the engine's processes, one operation in
// flight per process, like every other simulated resource.
type Store struct {
	cfg      Config
	eng      *sim.Engine
	kv       *sim.Resource
	net      *sim.PSLink
	listGate *sim.Resource // LIST-page admission (Config.ListInflight)

	mu   sync.Mutex
	objs map[string]*object
	keys []string // sorted view of objs for prefix scans

	// reg counts the store's requests and bytes (objfs.* counters) where
	// they are issued; Report, PublishObs and TraceProbes read it.  The
	// handles below are its counters, looked up once by New, so a request
	// bumps a counter without a registry lookup.
	reg                                             *obs.Registry
	puts, gets, heads, listPages, listKeys          *obs.Counter
	deletes, condPuts, conflicts, bytesIn, bytesOut *obs.Counter
}

// New builds an engineless store: operations cost nothing and handles
// are goroutine-safe.  It backs unit tests and the conformance suite the
// way a temp-dir osfs does.
func New(cfg Config) *Store {
	if cfg.ListPage < 1 {
		cfg.ListPage = 1000
	}
	s := &Store{cfg: cfg, objs: map[string]*object{}, reg: obs.New()}
	c := s.reg.Counter
	s.puts, s.gets, s.heads = c("objfs.puts"), c("objfs.gets"), c("objfs.heads")
	s.listPages, s.listKeys, s.deletes = c("objfs.list_pages"), c("objfs.list_keys"), c("objfs.deletes")
	s.condPuts, s.conflicts = c("objfs.cond_puts"), c("objfs.cond_put_conflicts")
	s.bytesIn, s.bytesOut = c("objfs.bytes_in"), c("objfs.bytes_out")
	return s
}

// NewSim builds a store bound to the engine: a KV server pool serializes
// request service and a fair-share link carries object bytes, so every
// operation issued through a Backend charges virtual time.
func NewSim(eng *sim.Engine, cfg Config) *Store {
	s := New(cfg)
	s.eng = eng
	s.kv = sim.NewResource(eng, max(1, cfg.KVServers))
	if cfg.ListInflight > 0 {
		s.listGate = sim.NewResource(eng, cfg.ListInflight)
	}
	if cfg.DataBW > 0 {
		s.net = sim.NewPSLink(eng, "objfs-data", cfg.DataBW)
	}
	return s
}

// Config returns the store's calibration.
func (s *Store) Config() Config { return s.cfg }

// objects counts the live objects, prefix markers included.
func (s *Store) objects() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.objs))
}

// requests sums the KV requests issued: PUTs, GETs, HEADs, LIST pages
// and DELETEs.
func (s *Store) requests() int64 {
	return s.puts.Value() + s.gets.Value() + s.heads.Value() + s.listPages.Value() + s.deletes.Value()
}

// bytes sums the object bytes moved, in and out.
func (s *Store) bytes() int64 {
	return s.bytesIn.Value() + s.bytesOut.Value()
}

// Roots creates n top-level prefixes ("/obj0" … "/objN-1") and returns
// their names — the mount roots a plfs.Ctx wants.  The prefixes are
// free-standing keys in one flat namespace: "federating" across them
// changes key strings, not service capacity, which is exactly the point
// the ablation-backend figure makes.  Creation is an administrative
// (cost-free) operation; calling Roots again returns the same names.
func (s *Store) Roots(n int) []string {
	out := make([]string, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range out {
		out[i] = fmt.Sprintf("/obj%d", i)
		key := out[i] + "/"
		if s.objs[key] == nil {
			s.insertLocked(key)
		}
	}
	return out
}

// Report maps the store's counters onto the pfs.Report shape the harness
// returns, so `plfsrun -stats` has something truthful to print in objfs
// mode: MetaOps covers every KV request, NetBytes the object bytes
// moved.  Fields that only exist on the POSIX simulation (lock RPCs,
// seeks, cache hits) stay zero.
func (s *Store) Report() pfs.Report {
	return pfs.Report{MetaOps: s.requests(), NetBytes: s.bytes()}
}

// PublishObs adds the store's counters into a metrics registry (objfs.*:
// puts, gets, heads, list_pages, list_keys, deletes, cond_puts,
// cond_put_conflicts, bytes_in, bytes_out) and sets its state gauges:
// objfs.objects and objfs.meta_bytes, the live per-object metadata
// footprint.  It is the objfs analogue of pfs.FS.PublishObs; call it once
// per run, after the store's last operation.
func (s *Store) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Merge(s.reg)
	n := s.objects()
	reg.Gauge("objfs.objects").Set(float64(n))
	reg.Gauge("objfs.meta_bytes").Set(float64(n * s.cfg.MetaObjBytes))
}

// TraceProbes exposes the store's shared resources for time-series
// sampling (the objfs analogue of pfs.FS.TraceProbes).
func (s *Store) TraceProbes() []struct {
	Name string
	Fn   func() float64
} {
	type probe = struct {
		Name string
		Fn   func() float64
	}
	ps := []probe{
		{"objfs_objects", func() float64 { return float64(s.objects()) }},
		{"objfs_kv_ops", func() float64 { return float64(s.requests()) }},
		{"objfs_bytes", func() float64 { return float64(s.bytes()) }},
	}
	if s.kv != nil {
		ps = append(ps, probe{"objfs_kv_queue", func() float64 { return float64(s.kv.QueueLen()) }})
	}
	if s.listGate != nil {
		ps = append(ps, probe{"objfs_list_queue", func() float64 { return float64(s.listGate.QueueLen()) }})
	}
	if s.net != nil {
		ps = append(ps, probe{"objfs_data_flows", func() float64 { return float64(s.net.Active()) }})
	}
	return ps
}

// ---- cost charging ------------------------------------------------------
//
// Costs are charged outside the store mutex: under the discrete-event
// engine a blocking call (Sleep, Resource.Use, PSLink.Transfer) parks the
// calling goroutine and runs others, and any of those blocking on a held
// sync.Mutex would deadlock the engine.  The mutex therefore only guards
// the in-memory map, and the windows it leaves between a HEAD and the
// dependent PUT are exactly where generation conflicts become observable.

// service charges one KV request: the round trip plus pooled service
// time.  Engineless stores (or a nil proc) charge nothing.
func (s *Store) service(p *sim.Proc, d time.Duration) {
	if s.eng == nil || p == nil {
		return
	}
	p.Sleep(s.eng.Jitter(s.cfg.RTT, s.cfg.JitterFrac))
	s.kv.Use(p, s.eng.Jitter(d, s.cfg.JitterFrac))
}

// listPage charges one paged LIST request while holding a listing
// admission slot, so at most Config.ListInflight pages are in service
// (RTT included) at once across the whole store — queueing, not KV-pool
// monopolization, is what a storm of giant prefix scans buys itself.
func (s *Store) listPage(p *sim.Proc, perKey time.Duration) {
	if s.listGate != nil && p != nil {
		s.listGate.Acquire(p)
		defer s.listGate.Release()
	}
	s.service(p, s.cfg.ListOp+perKey)
}

// transfer charges object-byte movement through the shared data link.
func (s *Store) transfer(p *sim.Proc, bytes int64) {
	if s.net == nil || p == nil || bytes <= 0 {
		return
	}
	s.net.Transfer(p, bytes)
}

// ---- keyspace primitives (callers hold s.mu) ----------------------------

// insertLocked adds a fresh object at key and returns it.
func (s *Store) insertLocked(key string) *object {
	o := &object{gen: 1}
	s.objs[key] = o
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	return o
}

// deleteLocked removes the object at key.
func (s *Store) deleteLocked(key string) {
	delete(s.objs, key)
	i := sort.SearchStrings(s.keys, key)
	if i < len(s.keys) && s.keys[i] == key {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
	}
}

// scanLocked returns the sorted keys strictly below prefix (the prefix
// marker itself excluded).
func (s *Store) scanLocked(prefix string) []string {
	lo := sort.SearchStrings(s.keys, prefix)
	out := []string{}
	for _, k := range s.keys[lo:] {
		if !strings.HasPrefix(k, prefix) {
			break
		}
		if k == prefix {
			continue
		}
		out = append(out, k)
	}
	return out
}

// markerKey is the key of path's prefix marker object.
func markerKey(path string) string { return strings.TrimSuffix(path, "/") + "/" }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
