package pfs

import (
	"time"

	"plfs/internal/extent"
	"plfs/internal/payload"
)

// This file models the vectored (list-I/O) fast paths of the storage
// client: many extents shipped in one request, batched appends, and the
// advisory write lock RMW-style writers need.  The costs differ from a
// loop of single ops in exactly the ways list I/O differs on real
// systems: one network round trip instead of K, one batched lock-RPC
// train instead of K, and one positioning sweep per involved OST group
// instead of one seek per extent (the server services the sorted extent
// list in a single pass, as PVFS listio and ROMIO's listless servers do).
// Per-byte transfer costs are unchanged — list I/O batches requests, it
// does not shrink them.

// WritevAt writes many extents in one request.  data carries the bytes,
// concatenated in segment order; its piece boundaries need not align with
// the segments.
func (h *Handle) WritevAt(segs []extent.Ext, data payload.List) error {
	if h.closed {
		return ErrClosed
	}
	if !h.writing {
		return ErrReadOnly
	}
	var total int64
	for _, e := range segs {
		total += e.Len
	}
	if total == 0 {
		return nil
	}
	cfg := &h.c.fs.Cfg
	if h.f.writeOpeners > 1 && cfg.LockUnit > 0 {
		// One batched lock acquisition covering every extent.
		rpcs := 0
		for _, e := range segs {
			lo := e.Off / cfg.LockUnit
			hi := (e.Off + e.Len + cfg.LockUnit - 1) / cfg.LockUnit
			rpcs += h.f.locks().tokens.acquire(lo, hi, h.c.node)
		}
		if rpcs > 0 {
			h.chargeLocks(rpcs)
		}
	}
	disks := make([]int64, len(segs))
	for i, e := range segs {
		disks[i] = e.Len
	}
	h.transferv(segs, disks, total, false)
	var pos int64
	for _, e := range segs {
		off := e.Off
		for _, p := range data.Slice(pos, e.Len) {
			h.f.data.WriteAt(off, p)
			off += p.Len()
		}
		pos += e.Len
		h.c.fs.nodeCache(h.c.node).insert(h.f.obj, e.Off, e.Len)
	}
	return nil
}

// ReadvAt reads many extents in one request, returning their bytes
// concatenated in segment order.
func (h *Handle) ReadvAt(segs []extent.Ext) (payload.List, error) {
	if h.closed {
		return nil, ErrClosed
	}
	c := h.c
	cfg := &c.fs.Cfg
	cache := c.fs.nodeCache(c.node)
	var total, hit int64
	disks := make([]int64, len(segs))
	for i, e := range segs {
		if e.Len <= 0 {
			continue
		}
		total += e.Len
		segHit := cache.hitBytes(h.f.obj, e.Off, e.Len)
		miss := e.Len - segHit
		c.fs.CacheHitB += segHit
		c.fs.CacheMisB += miss
		hit += segHit
		disks[i] = miss
		// Insert before the transfer completes, coalescing concurrent
		// readers onto the in-flight fill (see Handle.ReadAt).
		cache.insert(h.f.obj, e.Off, e.Len)
	}
	if total == 0 {
		return nil, nil
	}
	if hit > 0 && cfg.MemBW > 0 {
		c.p.Sleep(time.Duration(float64(hit) / cfg.MemBW * 1e9))
	}
	h.transferv(segs, disks, total, true)
	var out payload.List
	for _, e := range segs {
		if e.Len <= 0 {
			continue
		}
		out = out.Concat(h.f.data.ReadAt(e.Off, e.Len))
	}
	return out, nil
}

// Appendv appends many payload pieces as one backend operation at the
// current end of file and returns the offset the batch landed at — the
// entry point PLFS data droppings use to turn K logged extents into a
// single sequential append.
func (h *Handle) Appendv(pl payload.List) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	if !h.writing {
		return 0, ErrReadOnly
	}
	off := h.f.data.Size()
	total := pl.Len()
	if total == 0 {
		return off, nil
	}
	cfg := &h.c.fs.Cfg
	if h.f.writeOpeners > 1 && cfg.LockUnit > 0 {
		lo := off / cfg.LockUnit
		hi := (off + total + cfg.LockUnit - 1) / cfg.LockUnit
		if rpcs := h.f.locks().tokens.acquire(lo, hi, h.c.node); rpcs > 0 {
			h.chargeLocks(rpcs)
		}
	}
	seq := h.f.streamSeq(off, total, cfg.StreamSlots)
	h.transfer(off, total, total, seq, false)
	cur := off
	for _, p := range pl {
		h.f.data.WriteAt(cur, p)
		cur += p.Len()
	}
	h.c.fs.nodeCache(h.c.node).insert(h.f.obj, off, total)
	return off, nil
}

// transferv models moving a batch of extents in one request: one round
// trip, one storage-network flow of the combined size, and per-OST-group
// flows.  When any extent breaks the object's access streams, each
// involved group is charged a single positioning penalty for the whole
// request — the one-sweep servicing of a sorted extent list — rather
// than one per extent as a loop of independent ops would pay.
// disks gives the portion of each extent that must touch the disks
// (reads adjust it by the server cache below).
func (h *Handle) transferv(segs []extent.Ext, disks []int64, total int64, isRead bool) {
	c := h.c
	cfg := &c.fs.Cfg
	c.p.Sleep(c.jit(cfg.StorageRTT))

	shares := c.fs.shares
	clear(shares)
	seek := false
	for i, e := range segs {
		if e.Len <= 0 {
			continue
		}
		if !h.f.streamSeq(e.Off, e.Len, cfg.StreamSlots) {
			seek = true
		}
		disk := disks[i]
		if isRead {
			if svrHit := c.fs.svrCache.hitBytes(h.f.obj, e.Off, e.Len); disk > e.Len-svrHit {
				disk = e.Len - svrHit
			}
		}
		c.fs.svrCache.insert(h.f.obj, e.Off, e.Len)
		if disk > 0 {
			ostShares(shares, h.f.obj, e.Off, disk, cfg.StripeUnit)
		}
	}
	c.wg.Add(1)
	c.fs.snet.TransferAsync(total, c.done)
	for g, bytes := range shares {
		if bytes == 0 {
			continue
		}
		if seek && cfg.SeekTime > 0 {
			c.fs.SeekOps++
			bytes += int64(cfg.SeekTime.Seconds() * cfg.OSTGroupBW)
		}
		c.wg.Add(1)
		c.fs.groups[g].TransferAsync(bytes, c.done)
	}
	c.wg.Wait(c.p)
}

// LockRange takes the file's advisory write lock, the mutual-exclusion
// story for read-modify-write data sieving: ROMIO requires concurrent
// writers of a sieved file to serialize their RMW windows, and this is
// the fcntl byte-range lock standing in for that contract.  The grant is
// conservative — whole-file, ignoring off/n — and charges one lock-server
// RPC; the wait for a holder rides the simulated clock (the lock is a
// discrete-event mutex, so blocked writers cost virtual time, not
// wall-clock spin).
func (h *Handle) LockRange(off, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if h.c.fs.Cfg.LockRPC > 0 {
		h.chargeLocks(1)
	}
	h.f.locks().file.Lock(h.c.p)
	return nil
}

// UnlockRange releases the advisory lock taken by LockRange.
func (h *Handle) UnlockRange(off, n int64) error {
	if h.closed {
		return ErrClosed
	}
	h.f.lk.file.Unlock()
	return nil
}
