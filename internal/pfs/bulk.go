package pfs

import "time"

// BulkOp is one entry in a bulk-create batch: a file or directory to be
// created at Path.  Entries are applied in order, so a directory created
// early in a batch can parent files created later in the same batch.
type BulkOp struct {
	Path string
	Dir  bool
}

// CreateBulk ships a batch of namespace creates to the metadata service
// as a single RPC and returns one error slot per entry (nil on success,
// ErrExist/ErrNotExist/ErrNotDir otherwise; existing entries are left
// untouched).  Created files are not opened — pair with OpenWrite, which
// rides the wide read pool.
//
// Cost model (the Li/Latham "Parallel Data Object Creation" shape): one
// storage round trip for the whole batch, one per-directory critical
// section per run of entries sharing a parent — callers should group
// entries by parent to coalesce the convoy — and, per volume touched,
// BulkCreateOp + items×BulkCreateItem of mutation service instead of
// CreateOp per item.  The batch counts as one metadata op.
func (c *Client) CreateBulk(ops []BulkOp) []error {
	errs := make([]error, len(ops))
	if len(ops) == 0 {
		return errs
	}
	cfg := &c.fs.Cfg
	c.fs.MetaOps++
	c.fs.BulkBatches++
	c.fs.BulkOps += int64(len(ops))
	c.p.Sleep(c.jit(cfg.StorageRTT))

	// Per-volume item tallies for the amortized service charge.
	volItems := map[int]int{}
	var locked *dirNode
	unlock := func() {
		if locked != nil {
			locked.mu.Unlock()
			locked = nil
		}
	}
	for i, op := range ops {
		parent, name, err := c.fs.lookupParent(op.Path)
		if err != nil {
			errs[i] = err
			continue
		}
		volItems[parent.vol]++
		if parent != locked {
			unlock()
			crit := c.lockDir(parent)
			locked = parent
			c.p.Sleep(c.jit(crit))
		}
		if _, ok := parent.child(name); ok {
			errs[i] = ErrExist
			continue
		}
		c.fs.mknod(parent, name, op.Dir)
	}
	unlock()
	for vol, n := range sortedVolItems(volItems) {
		if n == 0 {
			continue
		}
		c.fs.vols[vol].mds.Use(c.p, c.jit(cfg.BulkCreateOp+time.Duration(n)*cfg.BulkCreateItem))
	}
	return errs
}

// sortedVolItems returns the tally as a dense slice indexed by volume so
// the service charges replay in a deterministic order.
func sortedVolItems(m map[int]int) []int {
	maxVol := -1
	for v := range m {
		if v > maxVol {
			maxVol = v
		}
	}
	out := make([]int, maxVol+1)
	for v, n := range m {
		out[v] = n
	}
	return out
}
