package pfs

import (
	"slices"
	"strings"
	"time"

	"plfs/internal/payload"
	"plfs/internal/sim"
)

// Client is one compute process's view of the file system.  All operations
// charge simulated time against the caller's process and the shared
// metadata/data resources.
type Client struct {
	fs   *FS
	node int
	p    *sim.Proc
	wg   sim.WaitGroup // a transfer's flows; Done is bound once in done
	done func()
}

// Client returns a client bound to the given compute node and process.
func (fs *FS) Client(node int, p *sim.Proc) *Client {
	if node < 0 || node >= fs.Cfg.Nodes {
		panic("pfs: node out of range")
	}
	c := &Client{fs: fs, node: node, p: p}
	c.done = c.wg.Done
	return c
}

// Node returns the compute node this client runs on.
func (c *Client) Node() int { return c.node }

// FS returns the underlying file system.
func (c *Client) FS() *FS { return c.fs }

func (c *Client) jit(d time.Duration) time.Duration {
	return c.fs.Eng.Jitter(d, c.fs.Cfg.JitterFrac)
}

// mdsService charges one read-path metadata RPC on the volume: network
// round trip plus service through the wide read pool.
func (c *Client) mdsService(vol int, d time.Duration) {
	c.fs.MetaOps++
	c.p.Sleep(c.jit(c.fs.Cfg.StorageRTT))
	c.fs.vols[vol].mdsRead.Use(c.p, c.jit(d))
}

// lockDir takes dir's critical section for the caller and returns its
// length, which grows with the number of mutators queued ahead (a
// hot-directory lock convoy).
func (c *Client) lockDir(dir *dirNode) time.Duration {
	cfg := &c.fs.Cfg
	waiters := dir.mu.Waiters()
	if dir.mu.Locked() {
		waiters++
	}
	dir.mu.Lock(c.p)
	crit := cfg.DirCritical
	if waiters > 0 {
		w := waiters
		if cfg.DirWaiterCap > 0 && w > cfg.DirWaiterCap {
			w = cfg.DirWaiterCap
		}
		crit += time.Duration(w) * cfg.DirPerWaiter
	}
	return crit
}

// nsMutate charges a namespace mutation in dir: the MDS service plus the
// per-directory critical section.
func (c *Client) nsMutate(dir *dirNode, d time.Duration) {
	c.fs.MetaOps++
	c.p.Sleep(c.jit(c.fs.Cfg.StorageRTT))
	crit := c.lockDir(dir)
	c.p.Sleep(c.jit(crit))
	dir.mu.Unlock()
	c.fs.vols[dir.vol].mds.Use(c.p, c.jit(d))
}

// createUnder inserts a new directory or file into parent, paying the
// full namespace-mutation cost (directory critical section + mutation
// service) only when this caller actually performs the insert.  Racers
// that find the entry already present — before or after queueing on the
// directory lock — resolve with a cheap lookup, as a real metadata
// server resolves EEXIST under a briefly-held lock.  The insert happens
// inside the critical section, so a convoy of racers behind the winner
// drains instantly rather than each paying the mutation cost.
func (c *Client) createUnder(parent *dirNode, name string, dir bool) (entry, error) {
	cfg := &c.fs.Cfg
	c.fs.MetaOps++
	if existing, ok := parent.child(name); ok {
		// Resolved from the client's dentry knowledge + one lookup RPC.
		c.p.Sleep(c.jit(cfg.StorageRTT))
		c.fs.vols[parent.vol].mdsRead.Use(c.p, c.jit(cfg.LookupOp))
		return existing, ErrExist
	}
	c.p.Sleep(c.jit(cfg.StorageRTT))
	crit := c.lockDir(parent)
	if existing, ok := parent.child(name); ok {
		parent.mu.Unlock()
		c.fs.vols[parent.vol].mdsRead.Use(c.p, c.jit(cfg.LookupOp))
		return existing, ErrExist
	}
	c.p.Sleep(c.jit(crit))
	e := c.fs.mknod(parent, name, dir)
	parent.mu.Unlock()
	c.fs.vols[parent.vol].mds.Use(c.p, c.jit(cfg.CreateOp))
	return e, nil
}

// Mkdir creates a directory.  The new directory inherits its parent's
// volume (directories cannot straddle metadata domains — the "rigid
// realms" the paper describes for PanFS).
func (c *Client) Mkdir(path string) error {
	parent, name, err := c.fs.lookupParent(path)
	if err != nil {
		return err
	}
	_, err = c.createUnder(parent, name, true)
	return err
}

// Create creates a new file and opens it for writing.
func (c *Client) Create(path string) (*Handle, error) {
	parent, name, err := c.fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	e, err := c.createUnder(parent, name, false)
	if err != nil {
		if _, ok := e.(*dirNode); ok {
			return nil, ErrIsDir
		}
		return nil, err
	}
	f := e.(*fileNode)
	f.writeOpeners++
	return &Handle{c: c, f: f, writing: true}, nil
}

// lookupFile resolves path to a file.
func (c *Client) lookupFile(path string) (*fileNode, error) {
	e, err := c.fs.lookup(path)
	if err != nil {
		return nil, err
	}
	f, ok := e.(*fileNode)
	if !ok {
		return nil, ErrIsDir
	}
	return f, nil
}

// OpenRead opens an existing file for reading.
func (c *Client) OpenRead(path string) (*Handle, error) {
	f, err := c.lookupFile(path)
	if err != nil {
		return nil, err
	}
	c.mdsService(f.vol, c.fs.Cfg.LookupOp)
	return &Handle{c: c, f: f}, nil
}

// OpenWrite opens an existing file for writing (no truncation).
func (c *Client) OpenWrite(path string) (*Handle, error) {
	f, err := c.lookupFile(path)
	if err != nil {
		return nil, err
	}
	c.mdsService(f.vol, c.fs.Cfg.LookupOp)
	f.writeOpeners++
	return &Handle{c: c, f: f, writing: true}, nil
}

// Stat returns metadata for path.
func (c *Client) Stat(path string) (FileInfo, error) {
	e, err := c.fs.lookup(path)
	if err != nil {
		return FileInfo{}, err
	}
	c.mdsService(e.base().vol, c.fs.Cfg.StatOp)
	return infoOf(e), nil
}

// ReadDir lists a directory in lexical order.
func (c *Client) ReadDir(path string) ([]FileInfo, error) {
	e, err := c.fs.lookup(path)
	if err != nil {
		return nil, err
	}
	d, ok := e.(*dirNode)
	if !ok {
		return nil, ErrNotDir
	}
	c.mdsService(d.vol, c.fs.Cfg.ReadDirOp+time.Duration(d.len())*c.fs.Cfg.ReadDirEnt)
	out := make([]FileInfo, 0, d.len())
	d.each(func(e entry) { out = append(out, infoOf(e)) })
	slices.SortFunc(out, func(a, b FileInfo) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(path string) error {
	e, err := c.fs.lookup(path)
	if err != nil {
		return err
	}
	n := e.base()
	if n.parent == nil {
		return ErrNotEmpty
	}
	if d, ok := e.(*dirNode); ok && d.len() > 0 {
		return ErrNotEmpty
	}
	c.nsMutate(n.parent, c.fs.Cfg.CreateOp)
	n.parent.remove(n.name)
	if f, ok := e.(*fileNode); ok {
		for _, nc := range c.fs.nodes {
			if nc != nil {
				nc.drop(f.obj)
			}
		}
	}
	return nil
}

// Rename moves a file or directory within the same volume.
func (c *Client) Rename(oldPath, newPath string) error {
	e, err := c.fs.lookup(oldPath)
	if err != nil {
		return err
	}
	parent, name, err := c.fs.lookupParent(newPath)
	if err != nil {
		return err
	}
	if _, ok := parent.child(name); ok {
		return ErrExist
	}
	n := e.base()
	if parent.vol != n.vol {
		return ErrNotDir // cross-volume renames are not supported, like rigid realms
	}
	c.nsMutate(n.parent, c.fs.Cfg.CreateOp)
	c.nsMutate(parent, c.fs.Cfg.CreateOp)
	n.parent.remove(n.name)
	n.parent = parent
	n.name = name
	parent.add(e)
	return nil
}

// Handle is an open file.
type Handle struct {
	c       *Client
	f       *fileNode
	writing bool
	closed  bool
}

// Size returns the file size as known to the client (no charged RPC; the
// client caches attributes from open).
func (h *Handle) Size() int64 { return h.f.data.Size() }

// Path-free name of the file (diagnostics).
func (h *Handle) Name() string { return h.f.name }

// WriteAt writes p at the given offset, paying range-lock costs when the
// file has multiple concurrent write openers.
func (h *Handle) WriteAt(off int64, p payload.Payload) error {
	if h.closed {
		return ErrClosed
	}
	if !h.writing {
		return ErrReadOnly
	}
	n := p.Len()
	if n == 0 {
		return nil
	}
	cfg := &h.c.fs.Cfg
	if h.f.writeOpeners > 1 && cfg.LockUnit > 0 {
		lo := off / cfg.LockUnit
		hi := (off + n + cfg.LockUnit - 1) / cfg.LockUnit
		if rpcs := h.f.locks().tokens.acquire(lo, hi, h.c.node); rpcs > 0 {
			h.chargeLocks(rpcs)
		}
	}
	seq := h.f.streamSeq(off, n, cfg.StreamSlots)
	h.transfer(off, n, n, seq, false)
	h.f.data.WriteAt(off, p)
	h.c.fs.nodeCache(h.c.node).insert(h.f.obj, off, n)
	return nil
}

// chargeLocks charges rpcs lock RPCs, which serialize through the file's
// lock server.
func (h *Handle) chargeLocks(rpcs int) {
	fs := h.c.fs
	fs.LockOps += int64(rpcs)
	d := h.c.jit(time.Duration(rpcs) * fs.Cfg.LockRPC)
	srv := &h.f.locks().rpc
	srv.Lock(h.c.p)
	h.c.p.Sleep(d)
	srv.Unlock()
}

// Append writes p at the current end of file and returns the offset it
// landed at.  Appends to single-writer files (PLFS droppings) are the
// fast path: sequential, lock-free.
func (h *Handle) Append(p payload.Payload) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	off := h.f.data.Size()
	return off, h.WriteAt(off, p)
}

// ReadAt returns the byte range [off, off+n), serving cached bytes at
// memory speed and the rest through the storage network and disks.
func (h *Handle) ReadAt(off, n int64) (payload.List, error) {
	if h.closed {
		return nil, ErrClosed
	}
	if n <= 0 {
		return nil, nil
	}
	h.read(off, n)
	return h.f.data.ReadAt(off, n), nil
}

// read charges the simulated time of reading [off, off+n).
func (h *Handle) read(off, n int64) {
	c := h.c
	cfg := &c.fs.Cfg
	cache := c.fs.nodeCache(c.node)
	hit := cache.hitBytes(h.f.obj, off, n)
	miss := n - hit
	c.fs.CacheHitB += hit
	c.fs.CacheMisB += miss
	// The access advances the object's readahead stream over its full
	// range whether or not parts were served from cache, so sequential
	// scans stay sequential across hit/miss boundaries.
	seq := h.f.streamSeq(off, n, cfg.StreamSlots)
	if hit > 0 && cfg.MemBW > 0 {
		c.p.Sleep(time.Duration(float64(hit) / cfg.MemBW * 1e9))
	}
	if miss > 0 {
		// Insert the range before the transfer completes: concurrent
		// readers of the same range on this node coalesce onto the
		// in-flight fill instead of issuing a thundering herd of disk
		// reads (they may observe completion slightly early — an
		// approximation of page-cache request coalescing).
		cache.insert(h.f.obj, off, n)
		h.transfer(off, n, miss, seq, true)
	}
}

// transfer models moving n bytes at file offset off between the client
// and the storage system: one flow across the shared storage network and
// one flow per involved OST group, pipelined (the slowest stage governs).
// Non-sequential requests charge each involved group a positioning
// penalty, expressed as seek-equivalent bytes so that it composes with
// fair sharing.
// Reads served from the storage servers' cache skip the disk stage.
// off/n describe the logical access; disk is the portion that must come
// from (or go to) the disks; seq is the object-level stream verdict
// computed by the caller (sequentiality is a property of the shared
// object, not the handle: concurrent streams into one file compete for
// the object's readahead slots).
func (h *Handle) transfer(off, n, disk int64, seq, isRead bool) {
	c := h.c
	cfg := &c.fs.Cfg
	c.p.Sleep(c.jit(cfg.StorageRTT))

	if isRead {
		if svrHit := c.fs.svrCache.hitBytes(h.f.obj, off, n); disk > n-svrHit {
			disk = n - svrHit
		}
	}
	c.fs.svrCache.insert(h.f.obj, off, n)

	c.wg.Add(1)
	c.fs.snet.TransferAsync(n, c.done)
	if disk > 0 {
		shares := c.fs.shares
		clear(shares)
		ostShares(shares, h.f.obj, off, disk, cfg.StripeUnit)
		for g, bytes := range shares {
			if bytes == 0 {
				continue
			}
			if !seq && cfg.SeekTime > 0 {
				c.fs.SeekOps++
				bytes += int64(cfg.SeekTime.Seconds() * cfg.OSTGroupBW)
			}
			c.wg.Add(1)
			c.fs.groups[g].TransferAsync(bytes, c.done)
		}
	}
	c.wg.Wait(c.p)
}

// ostShares adds to shares[g] the part of a transfer of n bytes at
// offset off that falls on OST group g under round-robin striping.  Each
// object's stripe 0 starts at a different group (obj % groups), as real
// layouts randomize the starting OST so small files spread across the
// disk pool.
func ostShares(shares []int64, obj uint64, off, n int64, stripe int64) {
	groups := len(shares)
	if stripe <= 0 || groups == 1 {
		shares[int(obj)%groups] += n
		return
	}
	base := int(obj % uint64(groups))
	if n >= stripe*int64(groups) {
		// Large transfer: essentially even across all groups.
		each := n / int64(groups)
		rem := n - each*int64(groups)
		for i := range shares {
			shares[i] += each
		}
		shares[(base+int(off/stripe))%groups] += rem
		return
	}
	// Small transfer: walk the stripe units it touches.
	for n > 0 {
		g := (base + int(off/stripe)) % groups
		take := stripe - off%stripe
		if take > n {
			take = n
		}
		shares[g] += take
		off += take
		n -= take
	}
}

// Close releases the handle.  Closing a written file charges a metadata
// update (size/attributes); read closes are free, as on real clients.
func (h *Handle) Close() error {
	if h.closed {
		return ErrClosed
	}
	h.closed = true
	if h.writing {
		h.f.writeOpeners--
		h.c.mdsService(h.f.vol, h.c.fs.Cfg.CloseOp)
	}
	return nil
}
