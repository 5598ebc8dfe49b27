package adio

import (
	"fmt"
	"sort"

	"plfs/internal/extent"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// IOMethod selects how the layer transforms a noncontiguous access
// (Thakur et al.'s taxonomy): one backend operation per segment, a
// read-modify-write of covering extents, a batched extent list, or the
// two-phase collective exchange.
type IOMethod int

const (
	// MethodAuto derives the method from the other hints (see
	// Hints.withDefaults): two-phase when collective buffering is
	// requested, list I/O otherwise.
	MethodAuto IOMethod = iota
	// MethodNaive issues one backend operation per flattened segment —
	// the POSIX baseline every optimization is measured against.
	MethodNaive
	// MethodSieve coalesces nearby segments into covering extents and
	// read-modify-writes each window (data sieving); reads simply fetch
	// the covering extent and discard the gaps.
	MethodSieve
	// MethodList ships the flattened segment list as one batched backend
	// request (list I/O) when the backend supports it.
	MethodList
	// MethodTwoPhase exchanges pieces over the interconnect so per-node
	// aggregators issue large contiguous file-domain accesses (collective
	// buffering); it applies to the *All calls, independent vectored
	// calls fall back to list I/O.
	MethodTwoPhase
)

// String implements fmt.Stringer (also the -io-method flag syntax).
func (m IOMethod) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodNaive:
		return "naive"
	case MethodSieve:
		return "sieve"
	case MethodList:
		return "list"
	case MethodTwoPhase:
		return "twophase"
	}
	return fmt.Sprintf("IOMethod(%d)", int(m))
}

// ParseIOMethod parses the -io-method flag syntax.
func ParseIOMethod(s string) (IOMethod, error) {
	for _, m := range []IOMethod{MethodAuto, MethodNaive, MethodSieve, MethodList, MethodTwoPhase} {
		if s == m.String() {
			return m, nil
		}
	}
	return MethodAuto, fmt.Errorf("adio: unknown io method %q (want auto|naive|sieve|list|twophase)", s)
}

// IOStats reports what a file's vectored accesses did (tests and the
// harness read it through Stats).
type IOStats struct {
	Method    IOMethod // effective noncontiguous method after hint defaults
	VecWrites int      // WriteAtv calls (including those behind WriteAll)
	VecReads  int      // ReadAtv calls
	Segs      int      // flattened segments across those calls
	Batches   int      // backend requests the vectored paths issued
	// SieveRMW counts write-side read-modify-write windows;
	// SieveReadBytes the bytes reread to fill them, and SieveWasted the
	// gap bytes transferred (either direction) that no segment asked for
	// — the amplification cost of Hints.SieveGap.
	SieveRMW       int
	SieveReadBytes int64
	SieveWasted    int64
}

// statser is the internal accessor behind Stats.
type statser interface{ ioStats() IOStats }

// Stats returns the vectored-access statistics of a file opened by this
// package (zero for foreign File implementations).
func Stats(f File) IOStats {
	if s, ok := f.(statser); ok {
		return s.ioStats()
	}
	return IOStats{}
}

// segTotal returns the byte count a segment list selects.
func segTotal(segs []Seg) int64 {
	var n int64
	for _, e := range segs {
		n += e.Len
	}
	return n
}

// segEnd returns one past the last byte any segment touches.
func segEnd(segs []Seg) int64 {
	var end int64
	for _, e := range segs {
		if e.End() > end {
			end = e.End()
		}
	}
	return end
}

// ---------------------------------------------------------------------
// UFS vectored paths: naive, list I/O, and write-side data sieving over
// a flat file.

// WriteAtv writes the flattened segments of one access, taking each
// segment's bytes from data in order, transformed per Hints.IOMethod.
func (u *ufsFile) WriteAtv(segs []Seg, data payload.List) error {
	if !u.writable {
		return errNotWritable
	}
	u.stats.VecWrites++
	u.stats.Segs += len(segs)
	switch u.hints.IOMethod {
	case MethodNaive:
		return u.writeEach(segs, data)
	case MethodSieve:
		return u.writeSievev(segs, data)
	default: // List; also TwoPhase (independent calls) and normalized Auto.
		return u.writeListv(segs, data)
	}
}

// ReadAtv reads the flattened segments of one access, returning their
// bytes concatenated in segment order.
func (u *ufsFile) ReadAtv(segs []Seg) (payload.List, error) {
	u.stats.VecReads++
	u.stats.Segs += len(segs)
	switch u.hints.IOMethod {
	case MethodNaive:
		return u.readEach(segs)
	case MethodSieve:
		return u.readSievev(segs)
	default: // list I/O, as writeListv
		u.stats.Batches++
		return u.f.ReadvAt(segs)
	}
}

// writeEach is the naive transformation: one backend write per segment.
func (u *ufsFile) writeEach(segs []Seg, data payload.List) error {
	var pos int64
	for _, e := range segs {
		off := e.Off
		for _, p := range data.Slice(pos, e.Len) {
			u.stats.Batches++
			if err := u.f.WriteAt(off, p); err != nil {
				return err
			}
			off += p.Len()
		}
		pos += e.Len
	}
	return nil
}

// readEach is the naive read: one backend read per segment.
func (u *ufsFile) readEach(segs []Seg) (payload.List, error) {
	var out payload.List
	for _, e := range segs {
		if e.Len <= 0 {
			continue
		}
		u.stats.Batches++
		pl, err := u.f.ReadAt(e.Off, e.Len)
		if err != nil {
			return nil, err
		}
		out = out.Concat(pl)
	}
	return out, nil
}

// writeListv ships the whole segment list as one batched backend
// request (list I/O).
func (u *ufsFile) writeListv(segs []Seg, data payload.List) error {
	u.stats.Batches++
	return u.f.WritevAt(segs, data)
}

// writeSievev is write-side data sieving: segments within SieveGap bytes
// of each other merge into covering windows (capped at SieveBuf, except
// across overlaps), and each window with gaps is read-modify-written
// under the file's range lock — ROMIO's correctness contract for
// concurrent writers of a sieved file.  Gap bytes below EOF are reread
// and written back unchanged; gaps past EOF are holes and come back as
// zeros, so sieving never invents nonzero data.  The reread and wasted
// bytes are charged to IOStats and the plfs.write.sieve_* counters.
func (u *ufsFile) writeSievev(segs []Seg, data payload.List) error {
	offs := make([]int64, len(segs))
	var pos int64
	for i, e := range segs {
		offs[i] = pos
		pos += e.Len
	}
	ext := func(i int) extent.Ext { return segs[i] }
	batches := extent.Plan(len(segs), nil, ext, u.hints.SieveGap, u.hints.SieveBuf)
	rl, _ := plfs.LeafFile(u.f).(plfs.RangeLocker)
	for _, b := range batches {
		live := b.Live(ext)
		rmw := live != b.Len
		var win payload.File
		if rmw {
			// The RMW window must be atomic against concurrent writers:
			// lock, reread, overlay, write back, unlock.
			if rl != nil {
				if err := rl.LockRange(b.Off, b.Len); err != nil {
					return err
				}
			}
			u.stats.SieveRMW++
			u.stats.SieveReadBytes += b.Len
			u.stats.SieveWasted += b.Len - live
			if obs := u.ctx.Obs; obs != nil {
				obs.Counter("plfs.write.sieve_rmw").Add(1)
				obs.Counter("plfs.write.sieve_read_bytes").Add(b.Len)
				obs.Counter("plfs.write.sieve_wasted").Add(b.Len - live)
			}
			u.stats.Batches++
			old, err := u.f.ReadAt(b.Off, b.Len)
			if err != nil {
				if rl != nil {
					rl.UnlockRange(b.Off, b.Len)
				}
				return err
			}
			cur := b.Off
			for _, p := range old {
				win.WriteAt(cur, p)
				cur += p.Len()
			}
		}
		// Overlay the window's segments in their original issue order, so
		// overlapping segments resolve exactly as the naive loop would.
		items := append([]int32(nil), b.Items...)
		sort.Slice(items, func(a, c int) bool { return items[a] < items[c] })
		for _, it := range items {
			e := segs[it]
			cur := e.Off
			for _, p := range data.Slice(offs[it], e.Len) {
				win.WriteAt(cur, p)
				cur += p.Len()
			}
		}
		err := u.writeListv([]Seg{{Off: b.Off, Len: b.Len}}, win.ReadAt(b.Off, b.Len))
		if rmw && rl != nil {
			if uerr := rl.UnlockRange(b.Off, b.Len); err == nil {
				err = uerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readSievev is read-side data sieving: fetch each covering window with
// one backend read and slice the requested segments out, discarding the
// gaps.
func (u *ufsFile) readSievev(segs []Seg) (payload.List, error) {
	ext := func(i int) extent.Ext { return segs[i] }
	batches := extent.Plan(len(segs), nil, ext, u.hints.SieveGap, u.hints.SieveBuf)
	parts := make([]payload.List, len(batches))
	batchOf := make([]int, len(segs))
	for bi, b := range batches {
		u.stats.Batches++
		u.stats.SieveWasted += b.Len - b.Live(ext)
		if obs := u.ctx.Obs; obs != nil {
			obs.Counter("plfs.read.sieve_wasted").Add(b.Len - b.Live(ext))
		}
		pl, err := u.f.ReadAt(b.Off, b.Len)
		if err != nil {
			return nil, err
		}
		parts[bi] = pl
		for _, it := range b.Items {
			batchOf[it] = bi
		}
	}
	var out payload.List
	for i, e := range segs {
		if e.Len <= 0 {
			continue
		}
		b := batches[batchOf[i]]
		out = out.Concat(parts[batchOf[i]].Slice(e.Off-b.Off, e.Len))
	}
	return out, nil
}

// WriteAll is the collective datatype-driven write: each rank hands its
// whole access pattern (t placed at base) in one call.  Without the
// two-phase wrapper the pattern flattens into this rank's vectored
// write; a barrier keeps the collective contract.
func (u *ufsFile) WriteAll(base int64, t *Datatype, data payload.List) error {
	err := u.WriteAtv(t.Segs(base), data)
	if u.ctx.Comm != nil {
		u.ctx.Comm.Barrier()
	}
	return err
}

// ReadAll is WriteAll's read side.
func (u *ufsFile) ReadAll(base int64, t *Datatype) (payload.List, error) {
	pl, err := u.ReadAtv(t.Segs(base))
	if u.ctx.Comm != nil {
		u.ctx.Comm.Barrier()
	}
	return pl, err
}

func (u *ufsFile) ioStats() IOStats {
	st := u.stats
	st.Method = u.hints.IOMethod
	return st
}

// ---------------------------------------------------------------------
// PLFS vectored paths.  The log structure collapses the classic
// trade-offs: every write is an append, so data sieving's RMW buys
// nothing and degrades to list I/O — K extents become K index entries
// (run-compressed) and one batched append.  Naive stays a per-segment
// loop for the baseline comparison.

// WriteAtv implements the vectored write on the PLFS driver.
func (p *plfsFile) WriteAtv(segs []Seg, data payload.List) error {
	if p.w == nil {
		return errNotWriteOpen
	}
	p.stats.VecWrites++
	p.stats.Segs += len(segs)
	if end := segEnd(segs); end > p.size {
		p.size = end
	}
	if p.hints.IOMethod == MethodNaive {
		var pos int64
		for _, e := range segs {
			off := e.Off
			for _, pl := range data.Slice(pos, e.Len) {
				p.stats.Batches++
				if err := p.w.Write(off, pl); err != nil {
					return err
				}
				off += pl.Len()
			}
			pos += e.Len
		}
		return nil
	}
	p.stats.Batches++
	return p.w.Writev(segs, data)
}

// ReadAtv implements the vectored read on the PLFS driver: the reader's
// sieving coalescer plans all segments' index pieces together.
func (p *plfsFile) ReadAtv(segs []Seg) (payload.List, error) {
	if p.r == nil {
		return nil, errNotReadOpen
	}
	p.stats.VecReads++
	p.stats.Segs += len(segs)
	if p.hints.IOMethod == MethodNaive {
		var out payload.List
		for _, e := range segs {
			if e.Len <= 0 {
				continue
			}
			p.stats.Batches++
			pl, err := p.r.ReadAt(e.Off, e.Len)
			if err != nil {
				return nil, err
			}
			out = out.Concat(pl)
		}
		return out, nil
	}
	p.stats.Batches++
	return p.r.ReadAtv(segs)
}

// WriteAll implements the collective datatype-driven write (see
// ufsFile.WriteAll).
func (p *plfsFile) WriteAll(base int64, t *Datatype, data payload.List) error {
	err := p.WriteAtv(t.Segs(base), data)
	if p.ctx.Comm != nil {
		p.ctx.Comm.Barrier()
	}
	return err
}

// ReadAll implements the collective datatype-driven read.
func (p *plfsFile) ReadAll(base int64, t *Datatype) (payload.List, error) {
	pl, err := p.ReadAtv(t.Segs(base))
	if p.ctx.Comm != nil {
		p.ctx.Comm.Barrier()
	}
	return pl, err
}

func (p *plfsFile) ioStats() IOStats {
	st := p.stats
	st.Method = p.hints.IOMethod
	return st
}

// ---------------------------------------------------------------------
// Two-phase collective vectored paths.

// WriteAtv on a collective-buffered file is an independent operation and
// forwards to the base file (which applies list I/O).
func (f *cbFile) WriteAtv(segs []Seg, data payload.List) error { return f.inner.WriteAtv(segs, data) }

// ReadAtv forwards like WriteAtv.
func (f *cbFile) ReadAtv(segs []Seg) (payload.List, error) { return f.inner.ReadAtv(segs) }

// WriteAll runs the two-phase exchange over the whole flattened access:
// each rank's pattern is split at aggregator-domain boundaries, shipped
// to the owning aggregators, and issued as large contiguous writes.
func (f *cbFile) WriteAll(base int64, t *Datatype, data payload.List) error {
	segs := t.Segs(base)
	if end := segEnd(segs); end > f.size {
		f.size = end
	}
	pieces := make([]cbPiece, 0, len(segs))
	var pos int64
	for _, e := range segs {
		off := e.Off
		for _, p := range data.Slice(pos, e.Len) {
			pieces = append(pieces, cbPiece{off, p})
			off += p.Len()
		}
		pos += e.Len
	}
	return f.writeAllPieces(pieces)
}

// ReadAll runs the two-phase exchange for reads of a whole flattened
// access pattern.
func (f *cbFile) ReadAll(base int64, t *Datatype) (payload.List, error) {
	return f.readAllSegs(t.Segs(base))
}

func (f *cbFile) ioStats() IOStats { return Stats(f.inner) }
