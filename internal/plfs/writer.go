package plfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"

	"plfs/internal/extent"
	"plfs/internal/payload"
)

// Writer is one process's write handle on a logical PLFS file.  All data
// goes to a private data dropping as sequential appends; index records
// accumulate and are persisted according to the mount's index mode.
type Writer struct {
	m   *Mount
	ctx Ctx
	rel string
	st  *containerState // pinned for the session (Create..Close)

	vc        int // canonical container volume
	subdir    int
	subVol    int
	stamp     string
	dataPath  string
	indexPath string
	dataFile  File

	buf      payload.List
	bufBytes int64
	written  int64 // bytes flushed to the data dropping

	entries    []Entry
	sums       []uint32 // per-entry CRC32C of data extents (Options.Checksum)
	spilledAll bool     // entries already persisted to the index dropping
	overflowed bool     // exceeded the flatten threshold

	maxLogical int64
	closed     bool

	// Stats accumulates what this writer's Write/Writev calls did (for
	// tests and the harness).
	Stats WriteStats
}

// WriteStats reports the work a writer performed.
type WriteStats struct {
	Ops     int   // Write calls
	VecOps  int   // Writev calls
	Segs    int   // extents logged across all Writev calls
	Bytes   int64 // logical bytes written
	Appends int   // backend append operations issued for data
}

// Create opens the logical file rel for writing, creating the container
// if needed.  With a communicator this is collective: rank 0 creates the
// container skeleton and the rest attach after a barrier — the paper's
// MPI-IO open.  Without one, every caller races politely (mkdir with
// EEXIST tolerated), as through FUSE.
func (m *Mount) Create(ctx Ctx, rel string) (*Writer, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	csp := ctx.Obs.StartSpan("create")
	defer csp.End()
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.create.ops").Add(1)
	}
	admitted, err := m.admit(ctx, "create")
	if err != nil {
		return nil, err
	}
	defer admitted()
	if m.opt.BulkCreate && ctx.Comm != nil && bulkCapable(ctx.Vols) {
		return m.createBatched(ctx, rel)
	}
	if ctx.Comm != nil {
		var res any
		if ctx.Comm.Rank() == 0 {
			res = errToStr(m.createSkeleton(ctx, rel))
		}
		if s := ctx.Comm.Bcast(0, 16, res); s != nil {
			return nil, errors.New(s.(string))
		}
	} else {
		if err := m.createSkeleton(ctx, rel); err != nil {
			return nil, err
		}
	}

	// Pin the container state for the whole write session: a pinned
	// state cannot be evicted, so the generation sequence this writer
	// advances stays monotone until Close.
	st := m.pin(rel, ctx.Tenant)
	ok := false
	defer func() {
		if !ok {
			m.unpin(st)
		}
	}()
	st.mu.Lock()
	st.gen++
	st.builtKey, st.built = builtKey{}, nil
	st.mu.Unlock()

	w := &Writer{m: m, ctx: ctx, rel: rel, st: st}
	w.vc = m.containerVol(rel)
	w.subdir = m.placeSubdir(ctx, rel, ctx.Host)
	if err := w.ensureHostdir(); err != nil {
		return nil, err
	}
	if ctx.HostLeader {
		// Register this host in openhosts (ignored if a sibling won).
		cpath, _ := m.containerPath(rel)
		f, err := ctx.createRetried(ctx.Vols[w.vc], path.Join(cpath, openHostsDir, fmt.Sprintf("host.%d", ctx.Host)), m.opt.Retry)
		if err == nil {
			f.Close()
		} else if !errors.Is(err, iofs.ErrExist) {
			return nil, err
		}
	}
	// Create this writer's droppings.
	w.stamp = fmt.Sprintf("%d.%d", ctx.now(), ctx.Rank)
	hpath, hv := m.hostdirPath(rel, w.subdir)
	w.subVol = hv
	w.dataPath = path.Join(hpath, dataPrefix+w.stamp)
	w.indexPath = path.Join(hpath, indexPrefix+w.stamp)
	df, err := ctx.createRetried(ctx.Vols[hv], w.dataPath, m.opt.Retry)
	if err != nil {
		return nil, err
	}
	w.dataFile = df
	ok = true
	return w, nil
}

func errToStr(err error) any {
	if err == nil {
		return nil
	}
	return err.Error()
}

// createSkeleton builds the container directory structure, tolerating
// pieces that already exist (another writer got there first).
func (m *Mount) createSkeleton(ctx Ctx, rel string) error {
	cpath, vc := m.containerPath(rel)
	b := ctx.Vols[vc]
	if err := ctx.mkdirRetried(b, cpath, m.opt.Retry); err != nil && !errors.Is(err, iofs.ErrExist) {
		return err
	}
	err := ctx.retry(m.opt.Retry, func() error {
		f, e := b.Create(path.Join(cpath, accessFile))
		if e == nil {
			f.Close()
		}
		return e
	})
	if err != nil && !errors.Is(err, iofs.ErrExist) {
		return err
	}
	for _, sub := range []string{metaDir, openHostsDir} {
		if err := ctx.mkdirRetried(b, path.Join(cpath, sub), m.opt.Retry); err != nil && !errors.Is(err, iofs.ErrExist) {
			return err
		}
	}
	return nil
}

// ensureHostdir creates the writer's hostdir (and, when subdirs are
// spread, the shadow container and the canonical metalink marker).
func (w *Writer) ensureHostdir() error {
	m, ctx := w.m, w.ctx
	hpath, hv := m.hostdirPath(w.rel, w.subdir)
	if hv != m.containerVol(w.rel) {
		// Shadow container directory on the remote volume.
		shadow := path.Join(m.roots[hv], w.rel)
		if err := ctx.mkdirRetried(ctx.Vols[hv], shadow, m.opt.Retry); err != nil && !errors.Is(err, iofs.ErrExist) {
			return err
		}
	}
	err := ctx.mkdirRetried(ctx.Vols[hv], hpath, m.opt.Retry)
	switch {
	case err == nil:
		if hv != m.containerVol(w.rel) {
			// First creator leaves a metalink marker in the canonical
			// container so uncoordinated readers can find the hostdir.
			cpath, vc := m.containerPath(w.rel)
			ml := path.Join(cpath, fmt.Sprintf("%s%d%s", hostdirPrefix, w.subdir, metalinkSufx))
			err := ctx.retry(m.opt.Retry, func() error {
				f, e := ctx.Vols[vc].Create(ml)
				if e == nil {
					f.Close()
				}
				return e
			})
			if err != nil && !errors.Is(err, iofs.ErrExist) {
				return err
			}
		}
		return nil
	case errors.Is(err, iofs.ErrExist):
		return nil
	default:
		return err
	}
}

// Write records p at logical offset off.  The data is appended (buffered)
// to the private data dropping — always sequential regardless of off, the
// core log-structured transform.
func (w *Writer) Write(off int64, p payload.Payload) error {
	if w.closed {
		return errors.New("plfs: writer closed")
	}
	n := p.Len()
	if n == 0 {
		return nil
	}
	if obs := w.ctx.Obs; obs != nil {
		defer obs.Timer("plfs.write.append")()
		obs.Counter("plfs.write.ops").Add(1)
		obs.Counter("plfs.write.bytes").Add(n)
	}
	w.Stats.Ops++
	w.Stats.Bytes += n
	w.record(off, p)
	return w.afterRecord()
}

// Writev records every extent of a flattened access in one call: segs[i]
// gets the next segs[i].Len bytes of data.  K extents cost K index
// entries (run-compressed like everything else) but the data is buffered
// as one batch and lands with a single backend append — the O(1)
// backend-operation contract list I/O buys on a log-structured driver,
// versus the K appends a per-extent loop would issue.
func (w *Writer) Writev(segs []extent.Ext, data payload.List) error {
	if w.closed {
		return errors.New("plfs: writer closed")
	}
	var total int64
	for _, e := range segs {
		total += e.Len
	}
	if total == 0 {
		return nil
	}
	if obs := w.ctx.Obs; obs != nil {
		defer obs.Timer("plfs.write.append")()
		obs.Counter("plfs.write.vec_ops").Add(1)
		obs.Counter("plfs.write.vec_segs").Add(int64(len(segs)))
		obs.Counter("plfs.write.bytes").Add(total)
	}
	w.Stats.VecOps++
	w.Stats.Bytes += total
	var pos int64
	for _, e := range segs {
		if e.Len == 0 {
			continue
		}
		w.Stats.Segs++
		off := e.Off
		for _, p := range data.Slice(pos, e.Len) {
			w.record(off, p)
			off += p.Len()
		}
		pos += e.Len
	}
	return w.afterRecord()
}

// record books one logical extent: an index entry (extended in place when
// index compression applies) and the payload appended to the data buffer.
func (w *Writer) record(off int64, p payload.Payload) {
	n := p.Len()
	phys := w.written + w.bufBytes
	extend := false
	if last := len(w.entries) - 1; last >= 0 && !w.m.opt.NoIndexCompression {
		e := &w.entries[last]
		if e.LogicalOff+e.Length == off && e.PhysOff+e.Length == phys {
			// Index compression: the write continues the previous record.
			e.Length += n
			e.Timestamp = w.ctx.now()
			extend = true
		}
	}
	if !extend {
		if have := len(w.entries); have == cap(w.entries) && have >= 256 {
			// append grows a slice this long by a quarter, which allocates
			// five times what a one-record-per-write index ends up holding;
			// doubling allocates twice.  Short indexes are left to append.
			grown := make([]Entry, have, 2*have)
			copy(grown, w.entries)
			w.entries = grown
		}
		w.entries = append(w.entries, Entry{
			LogicalOff: off,
			Length:     n,
			PhysOff:    phys,
			Timestamp:  w.ctx.now(),
			Rank:       int32(w.ctx.Rank),
		})
	}
	w.noteChecksum(p, extend)
	w.buf = w.buf.Append(p)
	w.bufBytes += n
	if end := off + n; end > w.maxLogical {
		w.maxLogical = end
	}
}

// afterRecord lands what the call recorded (write-through, like real PLFS:
// one backend append however many pieces) and applies the flatten-overflow
// check.
func (w *Writer) afterRecord() error {
	if err := w.flushData(); err != nil {
		return err
	}
	if w.m.opt.IndexMode == IndexFlatten && !w.overflowed && len(w.entries) > w.m.opt.FlattenThreshold {
		w.overflowed = true
	}
	return nil
}

// noteChecksum maintains the per-entry data CRCs alongside w.entries:
// a new entry starts a fresh CRC, a compression-extended entry rolls the
// appended payload into the last one.  The hashing cost is charged to
// the virtual clock so the ablation figure sees it.
func (w *Writer) noteChecksum(p payload.Payload, extend bool) {
	if !w.m.opt.Checksum {
		return
	}
	if extend {
		w.sums[len(w.sums)-1] = payloadCRC(w.sums[len(w.sums)-1], p)
	} else {
		w.sums = append(w.sums, payloadCRC(0, p))
	}
	w.ctx.sleep(w.m.opt.ChecksumCPUPerMB * timeDuration(int(p.Len())) / (1 << 20))
}

// flushData appends buffered payloads to the data dropping.  Transient
// append errors are retried (the injector guarantees a transiently
// failed append landed no bytes, so a reissue is clean); torn writes
// are permanent and surface immediately.
//
// When more than one piece is buffered the whole buffer lands in one
// batched backend append.  Under the fault injector the batch still
// faces per-piece transient/torn dice with defined prefix semantics, and
// a mid-batch failure reports TornWrite — permanent here, exactly as a
// torn single append is.
func (w *Writer) flushData() error {
	pl := w.buf
	if len(pl) == 0 {
		return nil
	}
	err := w.ctx.retry(w.m.opt.Retry, func() error {
		var e error
		if len(pl) == 1 {
			_, e = w.dataFile.Append(pl[0])
		} else {
			_, e = w.dataFile.Appendv(pl)
		}
		return e
	})
	if err != nil {
		return err
	}
	w.Stats.Appends++
	w.written += w.bufBytes
	w.buf, w.bufBytes = w.buf[:0], 0
	return nil
}

// flushThrough is flushData, then — over a store that buffers appends
// (Flusher) — a flush of the data dropping's handle, whose error is the
// write error those appends could not return.
func (w *Writer) flushThrough() error {
	err := w.flushData()
	if fl, ok := LeafFile(w.dataFile).(Flusher); ok {
		err = errors.Join(err, fl.Flush())
	}
	return err
}

// Sync flushes buffered data to the backing store.
func (w *Writer) Sync() error {
	if w.closed {
		return errors.New("plfs: writer closed")
	}
	return w.flushThrough()
}

// ownRecs is this writer's index in record form: run-compressed unless
// Options.NoRunCompression.  Run detection happens here, at flush time,
// where the writer's entries are still in append order — the order run
// structure appears in.
func (w *Writer) ownRecs() []Rec {
	if w.m.opt.NoRunCompression {
		return recsOf(w.entries)
	}
	return compressRecs(w.entries)
}

// writeOwnIndex persists this writer's index dropping.
func (w *Writer) writeOwnIndex() error {
	if w.spilledAll || len(w.entries) == 0 {
		return nil
	}
	buf := encodeRecs(w.ownRecs())
	if w.m.opt.Checksum {
		buf = appendSumTrailer(buf, idxSumMagic)
	}
	if err := w.m.commitReplicated(w.ctx, w.indexPath, buf, w.m.opt.Retry, false); err != nil {
		return err
	}
	w.spilledAll = true
	return nil
}

// flattenShard is what each writer contributes to Index Flatten at close.
type flattenShard struct {
	DataPath string
	Recs     []Rec
	Size     int64
	Overflow bool
}

// Close flushes data, persists index information according to the index
// mode, records the logical size in the metadir, and deregisters the
// host.  With a communicator it is collective; under IndexFlatten this is
// where the global index is gathered and written — the cost visible in
// the paper's Fig. 4c/4d.
//
// On the collective paths every rank reaches every collective call even
// when its local I/O failed — a rank that bailed early would leave its
// peers blocked in Gather/Barrier forever — and host deregistration is
// always attempted, so a failed close cannot leak openhosts records.
// All failures are collected and returned joined.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("plfs: writer closed")
	}
	w.closed = true
	m, ctx := w.m, w.ctx
	sp := ctx.Obs.StartSpan("close")
	defer sp.End()
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.close.ops").Add(1)
	}
	var errs []error
	fail := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}

	fsp := sp.Child("flush")
	// Data before index: a write error the store deferred counts as a
	// failed flush, so nothing below publishes a pointer to the lost bytes.
	flushErr := w.flushThrough()
	fsp.End()
	fail(flushErr)
	if flushErr == nil && !m.opt.NoDataFraming && len(w.entries) > 0 {
		// Recovery footer: a self-describing copy of this writer's index
		// appended to the data dropping, written before the index dropping
		// so a crash in between leaves a recoverable file (see Recover).
		ftsp := sp.Child("footer")
		fail(w.writeFrameFooter())
		ftsp.End()
	}
	fail(w.dataFile.Close())

	flatten := m.opt.IndexMode == IndexFlatten && ctx.Comm != nil
	if flatten {
		isp := sp.Child("index")
		sh := flattenShard{DataPath: w.dataPath, Recs: w.ownRecs(), Size: w.maxLogical, Overflow: w.overflowed}
		if flushErr != nil {
			// Unflushed bytes must not enter the global index; contribute
			// only the dropping path so the canonical ordering holds.
			sh.Recs, sh.Size = nil, 0
		}
		shards := ctx.Comm.Gather(0, recsWireLen(sh.Recs)+64, sh)
		anyOverflow := false
		var maxSize int64
		if ctx.Comm.Rank() == 0 {
			for _, v := range shards {
				s := v.(flattenShard)
				anyOverflow = anyOverflow || s.Overflow
				if s.Size > maxSize {
					maxSize = s.Size
				}
			}
		}
		st := ctx.Comm.Bcast(0, 16, [2]any{anyOverflow, maxSize}).([2]any)
		anyOverflow = st[0].(bool)
		if anyOverflow {
			// Threshold exceeded somewhere: everyone keeps a private index.
			if flushErr == nil {
				fail(w.writeOwnIndex())
			}
		} else if ctx.Comm.Rank() == 0 {
			fail(w.writeGlobalIndex(shards))
		}
		isp.End()
		csp := sp.Child("commit")
		if ctx.Comm.Rank() == 0 {
			fail(w.writeSizeRecord(st[1].(int64)))
		}
		ctx.Comm.Barrier()
		csp.End()
	} else {
		isp := sp.Child("index")
		if flushErr == nil {
			fail(w.writeOwnIndex())
		}
		isp.End()
		csp := sp.Child("commit")
		if ctx.Comm != nil {
			size := w.maxLogical
			if flushErr != nil {
				size = 0
			}
			sz := ctx.Comm.Allgather(8, size)
			if ctx.Comm.Rank() == 0 {
				var maxSize int64
				for _, v := range sz {
					if s := v.(int64); s > maxSize {
						maxSize = s
					}
				}
				fail(w.writeSizeRecord(maxSize))
			}
			ctx.Comm.Barrier()
		} else if flushErr == nil {
			fail(w.writeSizeRecord(w.maxLogical))
		}
		csp.End()
	}

	if ctx.HostLeader {
		cpath, _ := m.containerPath(w.rel)
		hostRec := path.Join(cpath, openHostsDir, fmt.Sprintf("host.%d", ctx.Host))
		err := ctx.retry(m.opt.Retry, func() error {
			return ctx.Vols[w.vc].Remove(hostRec)
		})
		if err != nil && !errors.Is(err, iofs.ErrNotExist) {
			fail(err)
		}
	}

	// The container's content just changed: advance its generation so the
	// cross-open index cache can never serve a pre-close aggregation, and
	// drop the per-container built-index memo.  This runs after the
	// collective barrier, so by the time any opener observes the new
	// generation every rank's droppings are durable.  A fresh lookup (not
	// w.st) deliberately targets whatever state is live — an explicit
	// rename/unlink during the session orphans w.st, and readers resolve
	// the replacement.
	st := m.stateOf(w.rel, ctx.Tenant)
	st.mu.Lock()
	st.gen++
	st.builtKey, st.built = builtKey{}, nil
	st.mu.Unlock()
	m.unpin(w.st)
	return errors.Join(errs...)
}

// writeFrameFooter appends the recovery footer to the data dropping:
// this writer's index entries, an entry count, and a magic trailer.
// Physical offsets are unaffected — the footer lands past every data
// extent — and Recover can rebuild the index dropping from it.
func (w *Writer) writeFrameFooter() error {
	var buf []byte
	if w.m.opt.Checksum {
		buf = encodeFrameFooterSums(w.entries, w.sums)
	} else {
		buf = encodeFrameFooter(w.entries)
	}
	return w.ctx.retry(w.m.opt.Retry, func() error {
		_, err := w.dataFile.Append(payload.FromBytes(buf))
		return err
	})
}

// writeSizeRecord caches the logical size in the metadir, stamped with
// the container's current truncation generation.  Records left behind
// by earlier generations (a truncation whose removals partially failed)
// are removed here — self-healing — so a stale larger size can never
// win over the current one.
func (w *Writer) writeSizeRecord(size int64) error {
	cpath, vc := w.m.containerPath(w.rel)
	b := w.ctx.Vols[vc]
	meta := path.Join(cpath, metaDir)
	pol := w.m.opt.Retry
	var ents []Info
	if err := w.ctx.retry(pol, func() error {
		var e error
		ents, e = b.ReadDir(meta)
		return e
	}); err != nil {
		return err
	}
	gen := metaGen(ents)
	var errs []error
	for _, e := range ents {
		if _, g, ok := parseSizeRecord(e.Name); ok && g != gen {
			if err := b.Remove(path.Join(meta, e.Name)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				errs = append(errs, err)
			}
		}
	}
	// Atomic publish: the record appears under its final name or not at
	// all, so a crash here cannot leave a half-created size record.
	name := path.Join(meta, fmt.Sprintf("%s%d.%d.%d", sizePrefix, size, gen, w.ctx.Rank))
	if err := w.ctx.writeFileAtomic(b, name, nil, pol, false); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// writeGlobalIndex persists the flattened global index to the metadir.
// Format: header with the canonical dropping paths, then every shard's
// records with dropping ids rewritten to the canonical order.
func (w *Writer) writeGlobalIndex(shardVals []any) error {
	shards := make([]flattenShard, 0, len(shardVals))
	for _, v := range shardVals {
		shards = append(shards, v.(flattenShard))
	}
	// Canonical order: sorted by data path (matches listDroppings).
	order := make([]int, len(shards))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return shards[order[i]].DataPath < shards[order[j]].DataPath
	})
	paths := make([]string, len(order))
	var all []Rec
	var total int
	for _, s := range shards {
		total += len(s.Recs)
	}
	all = make([]Rec, 0, total)
	for id, si := range order {
		paths[id] = shards[si].DataPath
		for _, rec := range shards[si].Recs {
			rec.Dropping = int32(id)
			all = append(all, rec)
		}
	}
	w.ctx.sleep(w.m.opt.ParseCPUPerEntry * timeDuration(len(all)))
	buf := encodeGlobalIndexRecs(paths, all)
	if w.m.opt.Checksum {
		buf = appendSumTrailer(buf, gidxSumMagic)
	}
	// Atomic temp+rename commit: readers can never decode a half-written
	// global index, and a retried append cannot duplicate entries (each
	// attempt starts from a fresh temp file).
	cpath, _ := w.m.containerPath(w.rel)
	return w.m.commitReplicated(w.ctx, path.Join(cpath, metaDir, globalIndex), buf, w.m.opt.Retry, false)
}
