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
	// many-small-objects layout visible (Stats.MetaBytes).
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

// Stats is a snapshot of the store's operation counters.
type Stats struct {
	Objects int64 // live objects, prefix markers included
	Puts    int64 // PUTs and part uploads (WriteAt/Append count here)
	Gets    int64
	Heads   int64
	Lists   int64 // LIST pages issued
	Deletes int64

	CondPuts  int64 // conditional PUTs (if-absent and if-generation)
	Conflicts int64 // conditional PUTs refused on a precondition

	ListKeys int64 // keys scanned by prefix listings
	BytesIn  int64 // object bytes written
	BytesOut int64 // object bytes read

	// MetaBytes is the live per-object metadata footprint
	// (Objects × Config.MetaObjBytes).
	MetaBytes int64
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

	stats Stats
}

// New builds an engineless store: operations cost nothing and handles
// are goroutine-safe.  It backs unit tests and the conformance suite the
// way a temp-dir osfs does.
func New(cfg Config) *Store {
	if cfg.ListPage < 1 {
		cfg.ListPage = 1000
	}
	return &Store{cfg: cfg, objs: map[string]*object{}}
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

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Objects = int64(len(s.objs))
	st.MetaBytes = st.Objects * s.cfg.MetaObjBytes
	return st
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
	st := s.Stats()
	return pfs.Report{
		MetaOps:  st.Puts + st.Gets + st.Heads + st.Lists + st.Deletes,
		NetBytes: st.BytesIn + st.BytesOut,
	}
}

// PublishObs writes the store's counters into a metrics registry under
// objfs.* (see internal/obs; the objfs analogue of pfs.FS.PublishObs).
func (s *Store) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := s.Stats()
	set := func(name string, v int64) { reg.Gauge("objfs." + name).Set(float64(v)) }
	set("objects", st.Objects)
	set("puts", st.Puts)
	set("gets", st.Gets)
	set("heads", st.Heads)
	set("list_pages", st.Lists)
	set("list_keys", st.ListKeys)
	set("deletes", st.Deletes)
	set("cond_puts", st.CondPuts)
	set("cond_put_conflicts", st.Conflicts)
	set("bytes_in", st.BytesIn)
	set("bytes_out", st.BytesOut)
	set("meta_bytes", st.MetaBytes)
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
		{"objfs_objects", func() float64 { return float64(s.Stats().Objects) }},
		{"objfs_kv_ops", func() float64 {
			st := s.Stats()
			return float64(st.Puts + st.Gets + st.Heads + st.Lists + st.Deletes)
		}},
		{"objfs_bytes", func() float64 {
			st := s.Stats()
			return float64(st.BytesIn + st.BytesOut)
		}},
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

// count applies fn to the counters under the lock.
func (s *Store) count(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
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
