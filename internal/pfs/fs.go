package pfs

import (
	"fmt"
	iofs "io/fs"
	"slices"
	"strings"
	"syscall"
	"time"

	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/sim"
)

// Errors returned by filesystem operations.  Each wraps the io/fs
// sentinel or the errno a POSIX file system returns for the same
// verdict, so layers above can test them without knowing which backend
// produced them.
var (
	ErrExist    = fmt.Errorf("pfs: %w", iofs.ErrExist)
	ErrNotExist = fmt.Errorf("pfs: %w", iofs.ErrNotExist)
	ErrIsDir    = fmt.Errorf("pfs: %w", syscall.EISDIR)
	ErrNotDir   = fmt.Errorf("pfs: %w", syscall.ENOTDIR)
	ErrNotEmpty = fmt.Errorf("pfs: %w", syscall.ENOTEMPTY)
	ErrClosed   = fmt.Errorf("pfs: handle %w", iofs.ErrClosed)
	ErrReadOnly = fmt.Errorf("pfs: handle not open for writing: %w", syscall.EBADF)
)

// FS is one simulated parallel file system instance attached to an engine.
type FS struct {
	Eng *sim.Engine
	Cfg Config

	vols     []*volume
	groups   []*sim.PSLink
	snet     *sim.PSLink
	nodes    []*cache // client caches by node; nil for a node that has done no I/O
	svrCache *cache
	root     *dirNode
	shares   []int64 // per-group scratch a transfer fills and spends before it parks

	nextObj uint64

	// Counters for diagnostics and tests.
	MetaOps     int64
	LockOps     int64
	SeekOps     int64
	CacheHitB   int64
	CacheMisB   int64
	BulkBatches int64 // bulk-create RPCs (each counts once in MetaOps)
	BulkOps     int64 // entries shipped inside bulk-create RPCs
}

type volume struct {
	mds     *sim.Resource // namespace mutations
	mdsRead *sim.Resource // lookups, opens, stats, readdirs
}

// node is what every namespace entry has: its name, the directory that
// holds it (nil for the root) and the volume (metadata domain) it lives on.
type node struct {
	name   string
	parent *dirNode
	vol    int
}

func (n *node) base() *node { return n }

// entry is a namespace entry: a *dirNode or a *fileNode.  Each pays only
// for its own state: a directory holds no file fields, a file no
// children or directory lock.
type entry interface{ base() *node }

// dirNode is a directory.  Its children sit in a short slice while they
// are few and move to a map when they outgrow it.  An N-N job's PLFS
// containers make four directories a file, nearly all with at most
// fewChildren entries, and a slice of those costs a fraction of a map
// (EXPERIMENTS.md, "A pfs entry and a cached block cost their own size
// (PR 45)").
type dirNode struct {
	node
	few  []entry          // the children while there are at most fewChildren
	many map[string]entry // the children once there are more
	mu   sim.Mutex        // the per-directory critical section; see lockDir
}

// fewChildren is the most children a directory keeps in its slice.
const fewChildren = 8

// child returns d's child called name.
func (d *dirNode) child(name string) (entry, bool) {
	if d.many != nil {
		e, ok := d.many[name]
		return e, ok
	}
	for _, e := range d.few {
		if e.base().name == name {
			return e, true
		}
	}
	return nil, false
}

// add links e into d under its name, which no child of d has.
func (d *dirNode) add(e entry) {
	if d.many == nil && len(d.few) < fewChildren {
		d.few = append(d.few, e)
		return
	}
	if d.many == nil {
		d.many = make(map[string]entry, 2*fewChildren)
		for _, c := range d.few {
			d.many[c.base().name] = c
		}
		d.few = nil
	}
	d.many[e.base().name] = e
}

// remove unlinks d's child called name.
func (d *dirNode) remove(name string) {
	if d.many != nil {
		delete(d.many, name)
		return
	}
	d.few = slices.DeleteFunc(d.few, func(e entry) bool { return e.base().name == name })
}

// len returns the number of d's children.
func (d *dirNode) len() int { return len(d.few) + len(d.many) }

// each calls fn on every child of d, in no particular order.
func (d *dirNode) each(fn func(entry)) {
	for _, e := range d.few {
		fn(e)
	}
	for _, e := range d.many {
		fn(e)
	}
}

// fileNode is a file: an object and its bytes.
type fileNode struct {
	node
	obj          uint64
	data         payload.File
	writeOpeners int
	// lk is the file's lock state, made on first use: most files (N-N
	// files, PLFS droppings) have one writer and never need it.
	lk *lockState

	// streams is the object's readahead/allocation stream table: the file
	// positions of the most recent access streams (LRU order, bounded by
	// Config.StreamSlots).  It is shared by every handle on the file, so
	// concurrent readers of one shared object thrash each other's
	// sequentiality — the reason decoupled PLFS droppings prefetch well
	// and N-1 shared files do not.
	streams []int64
}

// lockState is a file's locking: the byte-range write tokens that cost
// lock traffic, the lock server that serializes their RPCs (see
// chargeLocks), and the advisory whole-file write lock behind
// Handle.LockRange — real mutual exclusion for RMW writers, distinct
// from the token table, which only *costs* lock traffic.
type lockState struct {
	tokens lockTable
	rpc    sim.Mutex
	file   sim.Mutex
}

// locks returns f's lock state, making it on first use.
func (f *fileNode) locks() *lockState {
	if f.lk == nil {
		f.lk = &lockState{}
	}
	return f.lk
}

// streamSeq reports whether an access at off continues one of the
// object's active streams, and records the stream position for the next
// access.
func (f *fileNode) streamSeq(off, length int64, slots int) bool {
	if slots < 1 {
		slots = 1
	}
	for i, pos := range f.streams {
		if pos == off {
			// Continue this stream; move it to the MRU position.
			copy(f.streams[1:i+1], f.streams[:i])
			f.streams[0] = off + length
			return true
		}
	}
	// New stream: evict the LRU slot if full.
	if len(f.streams) < slots {
		f.streams = append(f.streams, 0)
	}
	copy(f.streams[1:], f.streams[:len(f.streams)-1])
	f.streams[0] = off + length
	return false
}

// New creates a file system on the engine.  The namespace root exists and
// lives on volume 0; use VolumeRoot to obtain per-volume top directories.
func New(eng *sim.Engine, cfg Config) *FS {
	if cfg.Volumes < 1 {
		cfg.Volumes = 1
	}
	if cfg.OSTGroups < 1 {
		cfg.OSTGroups = 1
	}
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	fs := &FS{Eng: eng, Cfg: cfg}
	for i := 0; i < cfg.Volumes; i++ {
		fs.vols = append(fs.vols, &volume{
			mds:     sim.NewResource(eng, max(1, cfg.MDSServers)),
			mdsRead: sim.NewResource(eng, max(1, cfg.MDSReadServers)),
		})
	}
	for i := 0; i < cfg.OSTGroups; i++ {
		bw := cfg.OSTGroupBW
		if i == cfg.DegradedGroup && cfg.DegradedFactor > 0 && cfg.DegradedFactor < 1 {
			bw *= cfg.DegradedFactor
		}
		fs.groups = append(fs.groups, sim.NewPSLink(eng, fmt.Sprintf("ost%d", i), bw))
	}
	fs.snet = sim.NewPSLink(eng, "storage-net", cfg.StorageBW)
	fs.shares = make([]int64, cfg.OSTGroups)
	fs.svrCache = newCache(cfg.ServerCacheBytes, cfg.StripeUnit)
	fs.root = &dirNode{node: node{name: "/"}}
	// Pre-create the per-volume top directories: /vol0 .. /volN-1.
	for i := 0; i < cfg.Volumes; i++ {
		fs.root.add(&dirNode{node: node{name: fmt.Sprintf("vol%d", i), parent: fs.root, vol: i}})
	}
	return fs
}

// VolumeRoot returns the path of volume i's top directory.
func (fs *FS) VolumeRoot(i int) string { return fmt.Sprintf("/vol%d", i) }

// Report summarizes resource usage over the simulation so far: where the
// time went and which stage was the bottleneck.
type Report struct {
	MetaOps     int64
	LockOps     int64
	SeekOps     int64
	BulkBatches int64
	BulkOps     int64
	NetBytes    int64   // through the storage network
	DiskBytes   int64   // through the OST groups (includes seek-equivalents)
	CacheHitPct float64 // client-cache read hit ratio
	MDSBusy     []time.Duration
	MDSReadBusy []time.Duration
}

// DropCaches empties every node's client cache and the storage servers'
// cache — the benchmarking hygiene (drop_caches, remounts) used between
// the write and read phases of kernel studies so reads measure the
// storage system rather than local memory.
func (fs *FS) DropCaches() {
	for _, c := range fs.nodes {
		if c != nil {
			c.reset()
		}
	}
	fs.svrCache.reset()
}

// nodeCache returns node's client cache, making it on first use: a job
// touches the nodes its ranks run on, not every node of the cluster.
// The table grows to the highest node that has done I/O; a job packs
// its ranks onto the lowest nodes.
func (fs *FS) nodeCache(node int) *cache {
	for len(fs.nodes) <= node {
		fs.nodes = append(fs.nodes, nil)
	}
	c := fs.nodes[node]
	if c == nil {
		c = newCache(fs.Cfg.ClientCacheBytes, fs.Cfg.StripeUnit)
		fs.nodes[node] = c
	}
	return c
}

// Report builds a usage summary.
func (fs *FS) Report() Report {
	r := Report{
		MetaOps:     fs.MetaOps,
		LockOps:     fs.LockOps,
		SeekOps:     fs.SeekOps,
		BulkBatches: fs.BulkBatches,
		BulkOps:     fs.BulkOps,
		NetBytes:    fs.snet.Moved,
	}
	for _, g := range fs.groups {
		r.DiskBytes += g.Moved
	}
	if tot := fs.CacheHitB + fs.CacheMisB; tot > 0 {
		r.CacheHitPct = 100 * float64(fs.CacheHitB) / float64(tot)
	}
	for _, v := range fs.vols {
		r.MDSBusy = append(r.MDSBusy, v.mds.Busy)
		r.MDSReadBusy = append(r.MDSReadBusy, v.mdsRead.Busy)
	}
	return r
}

// String renders the report.
func (r Report) String() string {
	var mb, rb time.Duration
	for _, d := range r.MDSBusy {
		mb += d
	}
	for _, d := range r.MDSReadBusy {
		rb += d
	}
	return fmt.Sprintf(
		"meta ops %d (mutate busy %.1fs, read busy %.1fs across %d volume(s)); lock rpcs %d; seeks %d; "+
			"net %.1f GB; disk %.1f GB (incl. seek-equivalents); client-cache hit %.0f%%",
		r.MetaOps, mb.Seconds(), rb.Seconds(), len(r.MDSBusy), r.LockOps, r.SeekOps,
		float64(r.NetBytes)/1e9, float64(r.DiskBytes)/1e9, r.CacheHitPct)
}

// Volumes returns the number of metadata domains.
func (fs *FS) Volumes() int { return fs.Cfg.Volumes }

// StoragePeak returns the storage network capacity in bytes per second
// (the cluster's "theoretical peak" I/O bandwidth).
func (fs *FS) StoragePeak() float64 { return fs.Cfg.StorageBW }

// lookup resolves path to an entry without charging simulation cost.  It
// ignores leading and trailing slashes; an empty element between two
// slashes names nothing.  The walk cuts one element at a time, so it
// allocates nothing.
func (fs *FS) lookup(path string) (entry, error) {
	var n entry = fs.root
	for rest := strings.Trim(path, "/"); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		d, ok := n.(*dirNode)
		if !ok {
			return nil, ErrNotDir
		}
		if n, ok = d.child(part); !ok {
			return nil, ErrNotExist
		}
	}
	return n, nil
}

// lookupParent resolves the parent directory of path and returns it with
// the final path element, reading path as lookup does.
func (fs *FS) lookupParent(path string) (*dirNode, string, error) {
	rest := strings.Trim(path, "/")
	if rest == "" {
		return nil, "", ErrExist
	}
	dir := fs.root
	for {
		part, tail, more := strings.Cut(rest, "/")
		if !more {
			return dir, part, nil
		}
		c, ok := dir.child(part)
		if !ok {
			return nil, "", ErrNotExist
		}
		if dir, ok = c.(*dirNode); !ok {
			return nil, "", ErrNotDir
		}
		rest = tail
	}
}

// mknod links a new directory or file named name into parent.
func (fs *FS) mknod(parent *dirNode, name string, dir bool) entry {
	n := node{name: name, parent: parent, vol: parent.vol}
	var e entry
	if dir {
		e = &dirNode{node: n}
	} else {
		fs.nextObj++
		e = &fileNode{node: n, obj: fs.nextObj}
	}
	parent.add(e)
	return e
}

// FileInfo describes a namespace entry.
type FileInfo struct {
	Name  string
	Dir   bool
	Size  int64
	Bytes int64 // alias of Size for files
}

func infoOf(e entry) FileInfo {
	fi := FileInfo{Name: e.base().name}
	switch e := e.(type) {
	case *dirNode:
		fi.Dir = true
	case *fileNode:
		fi.Size = e.data.Size()
		fi.Bytes = fi.Size
	}
	return fi
}

// PublishObs copies the file system's cumulative service metrics into
// reg as gauges — aggregate op counters plus per-volume MDS busy time
// and per-OST-group bytes moved (see internal/obs and DESIGN.md §11).
// It snapshots current totals; call it after the workload completes (or
// periodically) rather than once up front.  Nil-safe.
func (fs *FS) PublishObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r := fs.Report()
	reg.Gauge("pfs.meta_ops").Set(float64(r.MetaOps))
	reg.Gauge("pfs.lock_rpcs").Set(float64(r.LockOps))
	reg.Gauge("pfs.seeks").Set(float64(r.SeekOps))
	reg.Gauge("pfs.bulk_batches").Set(float64(r.BulkBatches))
	reg.Gauge("pfs.bulk_ops").Set(float64(r.BulkOps))
	reg.Gauge("pfs.net_bytes").Set(float64(r.NetBytes))
	reg.Gauge("pfs.disk_bytes").Set(float64(r.DiskBytes))
	reg.Gauge("pfs.cache_hit_pct").Set(r.CacheHitPct)
	for i, v := range fs.vols {
		reg.Gauge(fmt.Sprintf("pfs.vol%d.mds_busy_seconds", i)).Set(v.mds.Busy.Seconds())
		reg.Gauge(fmt.Sprintf("pfs.vol%d.mdsread_busy_seconds", i)).Set(v.mdsRead.Busy.Seconds())
	}
	for i, g := range fs.groups {
		reg.Gauge(fmt.Sprintf("pfs.ost%d.bytes_moved", i)).Set(float64(g.Moved))
	}
}

// TraceProbes exposes the file system's shared resources as trace probes
// for time-series sampling (the harness's Job.TraceEvery): in-flight
// flow counts, metadata queue depths, and cumulative byte/op counters.
func (fs *FS) TraceProbes() []struct {
	Name string
	Fn   func() float64
} {
	type probe = struct {
		Name string
		Fn   func() float64
	}
	ps := []probe{
		{"snet_flows", func() float64 { return float64(fs.snet.Active()) }},
		{"net_bytes", func() float64 { return float64(fs.snet.Moved) }},
		{"meta_ops", func() float64 { return float64(fs.MetaOps) }},
		{"lock_rpcs", func() float64 { return float64(fs.LockOps) }},
		{"seeks", func() float64 { return float64(fs.SeekOps) }},
		{"cache_hit_bytes", func() float64 { return float64(fs.CacheHitB) }},
	}
	ps = append(ps, probe{"ost_flows", func() float64 {
		n := 0
		for _, g := range fs.groups {
			n += g.Active()
		}
		return float64(n)
	}})
	ps = append(ps, probe{"mds_queue", func() float64 {
		n := 0
		for _, v := range fs.vols {
			n += v.mds.QueueLen()
		}
		return float64(n)
	}})
	ps = append(ps, probe{"mdsread_queue", func() float64 {
		n := 0
		for _, v := range fs.vols {
			n += v.mdsRead.QueueLen()
		}
		return float64(n)
	}})
	return ps
}
