// Package adio implements an MPI-IO style abstract device interface
// (after ROMIO's ADIO): a uniform File API over interchangeable drivers,
// with hints and two-phase collective buffering.
//
// The paper adds a PLFS driver to MPI-IO's ADIO layer ("MPI provides an
// abstract device interface, ADIO, that we leverage to reroute I/O calls
// to the PLFS library"), which is what lets PLFS inherit communicators
// and run its collective index optimizations.  This package provides:
//
//   - the UFS driver: direct access to the underlying parallel file
//     system (the paper's "direct access" baseline);
//   - the PLFS driver: logical files routed through plfs.Mount;
//   - collective buffering (two-phase I/O): tiny strided accesses are
//     exchanged over the interconnect and issued as large contiguous
//     transfers by per-node aggregators, as the paper enables for the
//     LANL 3 kernel.
package adio

import (
	"errors"
	"fmt"
	"io/fs"

	"plfs/internal/comm"
	"plfs/internal/extent"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Mode selects open semantics.
type Mode int

const (
	// ReadOnly opens an existing file for reading.
	ReadOnly Mode = iota
	// WriteCreate creates the file (rank 0) and opens it for writing
	// everywhere.  PLFS files do not support concurrent read-write access
	// (the paper modified IOR and MADbench accordingly).
	WriteCreate
)

// Hints mirror the MPI-IO info keys the paper's experiments use.
type Hints struct {
	// CollectiveBuffering enables two-phase I/O on the *AtAll calls.
	// It is normalized against IOMethod by withDefaults; after opening,
	// it is true exactly when the effective method is MethodTwoPhase.
	CollectiveBuffering bool
	// ProcsPerNode tells the layer how ranks map to nodes so aggregators
	// can be placed one per node (default 16).
	ProcsPerNode int
	// IOMethod picks the noncontiguous transformation (default MethodAuto:
	// two-phase when CollectiveBuffering is set, list I/O otherwise).
	IOMethod IOMethod
	// SieveGap is the largest gap (bytes) data sieving bridges when
	// coalescing segments into one RMW window (default 64 KiB).
	SieveGap int64
}

// withDefaults is the single place hints are normalized — every driver
// calls it exactly once at Open, so no other code may reinterpret raw
// hint values.  Resolution order: explicit IOMethod wins; MethodAuto
// derives from CollectiveBuffering; then CollectiveBuffering is rewritten
// to agree with the method, which is what maybeCB keys on.
func (h Hints) withDefaults() Hints {
	if h.ProcsPerNode <= 0 {
		h.ProcsPerNode = 16
	}
	if h.IOMethod == MethodAuto {
		if h.CollectiveBuffering {
			h.IOMethod = MethodTwoPhase
		} else {
			h.IOMethod = MethodList
		}
	}
	h.CollectiveBuffering = h.IOMethod == MethodTwoPhase
	if h.SieveGap <= 0 {
		h.SieveGap = 64 << 10
	}
	return h
}

// File is an open MPI-IO file.
type File interface {
	// WriteAt / ReadAt are independent (non-collective) operations.
	WriteAt(off int64, p payload.Payload) error
	ReadAt(off, n int64) (payload.List, error)
	// WriteAtv / ReadAtv are independent vectored operations: a whole
	// flattened access in one call, transformed per Hints.IOMethod.
	// data carries the segments' bytes concatenated in segment order;
	// ReadAtv returns them the same way (holes as zeros).
	WriteAtv(segs []Seg, data payload.List) error
	ReadAtv(segs []Seg) (payload.List, error)
	// WriteAtAll / ReadAtAll are collective: every rank of the opening
	// communicator must call them together.
	WriteAtAll(off int64, p payload.Payload) error
	ReadAtAll(off, n int64) (payload.List, error)
	// WriteAll / ReadAll are the collective datatype-driven forms: each
	// rank describes its whole access pattern (t placed at base) in one
	// call, enabling the two-phase exchange across pattern pieces.
	WriteAll(base int64, t *Datatype, data payload.List) error
	ReadAll(base int64, t *Datatype) (payload.List, error)
	// Size returns the file size (write handles report bytes seen so far).
	Size() int64
	// Close releases the file; collective when opened with a communicator.
	Close() error
}

// Driver opens files for a particular file system binding.
type Driver interface {
	Name() string
	Open(ctx plfs.Ctx, path string, mode Mode, hints Hints) (File, error)
}

// ---------------------------------------------------------------------
// UFS driver: direct access to the underlying parallel file system.

// UFS is the direct-access driver; vol selects which backend volume the
// path lives on.
type UFS struct {
	Vol int
}

// Name implements Driver.
func (UFS) Name() string { return "ufs" }

// Open implements Driver.
func (u UFS) Open(ctx plfs.Ctx, path string, mode Mode, hints Hints) (File, error) {
	hints = hints.withDefaults()
	b := ctx.Vols[u.Vol]
	var f plfs.File
	var err error
	switch mode {
	case ReadOnly:
		f, err = b.OpenRead(path)
	case WriteCreate:
		if ctx.Comm != nil {
			// Rank 0 creates; everyone else opens after the broadcast.
			var msg any
			if ctx.Comm.Rank() == 0 {
				f, err = create(b, path)
				msg = errString(err)
			}
			if s := ctx.Comm.Bcast(0, 16, msg); s != nil {
				return nil, errors.New(s.(string))
			}
			if ctx.Comm.Rank() != 0 {
				f, err = b.OpenWrite(path)
			}
		} else {
			f, err = create(b, path)
		}
	default:
		return nil, fmt.Errorf("adio: bad mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	base := &ufsFile{ctx: ctx, f: f, hints: hints, writable: mode == WriteCreate}
	return maybeCB(ctx, base, hints), nil
}

// create is MPI_MODE_CREATE: it creates path, or opens it for write,
// keeping its bytes, when it already exists.
func create(b plfs.Backend, path string) (plfs.File, error) {
	f, err := b.Create(path)
	if errors.Is(err, fs.ErrExist) {
		return b.OpenWrite(path)
	}
	return f, err
}

func errString(err error) any {
	if err == nil {
		return nil
	}
	return err.Error()
}

var (
	errNotWritable  = errors.New("adio: file opened read-only")
	errNotWriteOpen = errors.New("adio: PLFS file not open for write")
	errNotReadOpen  = errors.New("adio: PLFS file not open for read")
)

type ufsFile struct {
	ctx      plfs.Ctx
	f        plfs.File
	hints    Hints
	writable bool
	closed   bool
}

func (u *ufsFile) WriteAt(off int64, p payload.Payload) error {
	if !u.writable {
		return errNotWritable
	}
	return u.f.WriteAt(off, p)
}

func (u *ufsFile) ReadAt(off, n int64) (payload.List, error) { return u.f.ReadAt(off, n) }

func (u *ufsFile) WriteAtAll(off int64, p payload.Payload) error {
	err := u.WriteAt(off, p)
	if u.ctx.Comm != nil {
		u.ctx.Comm.Barrier()
	}
	return err
}

func (u *ufsFile) ReadAtAll(off, n int64) (payload.List, error) {
	pl, err := u.ReadAt(off, n)
	if u.ctx.Comm != nil {
		u.ctx.Comm.Barrier()
	}
	return pl, err
}

func (u *ufsFile) Size() int64 { return u.f.Size() }

func (u *ufsFile) Close() error {
	if u.closed {
		return errors.New("adio: double close")
	}
	u.closed = true
	err := u.f.Close()
	if u.ctx.Comm != nil {
		u.ctx.Comm.Barrier()
	}
	return err
}

// ---------------------------------------------------------------------
// PLFS driver.

// PLFS routes logical files through a PLFS mount — the paper's ADIO
// driver contribution.
type PLFS struct {
	Mount *plfs.Mount
}

// Name implements Driver.
func (PLFS) Name() string { return "plfs" }

// Open implements Driver.
func (d PLFS) Open(ctx plfs.Ctx, path string, mode Mode, hints Hints) (File, error) {
	hints = hints.withDefaults()
	switch mode {
	case ReadOnly:
		r, err := d.Mount.OpenReader(ctx, path)
		if err != nil {
			return nil, err
		}
		return maybeCB(ctx, &plfsFile{ctx: ctx, r: r, hints: hints}, hints), nil
	case WriteCreate:
		w, err := d.Mount.Create(ctx, path)
		if err != nil {
			return nil, err
		}
		return maybeCB(ctx, &plfsFile{ctx: ctx, w: w, hints: hints}, hints), nil
	}
	return nil, fmt.Errorf("adio: bad mode %d", mode)
}

type plfsFile struct {
	ctx    plfs.Ctx
	w      *plfs.Writer
	r      *plfs.Reader
	hints  Hints
	size   int64
	closed bool
}

func (p *plfsFile) WriteAt(off int64, pl payload.Payload) error {
	if p.w == nil {
		return errNotWriteOpen
	}
	if end := off + pl.Len(); end > p.size {
		p.size = end
	}
	return p.w.Write(off, pl)
}

func (p *plfsFile) ReadAt(off, n int64) (payload.List, error) {
	if p.r == nil {
		// PLFS does not support read-write mode on shared files (§IV.C.3).
		return nil, errNotReadOpen
	}
	return p.r.ReadAt(off, n)
}

func (p *plfsFile) WriteAtAll(off int64, pl payload.Payload) error {
	err := p.WriteAt(off, pl)
	if p.ctx.Comm != nil {
		p.ctx.Comm.Barrier()
	}
	return err
}

func (p *plfsFile) ReadAtAll(off, n int64) (payload.List, error) {
	out, err := p.ReadAt(off, n)
	if p.ctx.Comm != nil {
		p.ctx.Comm.Barrier()
	}
	return out, err
}

func (p *plfsFile) Size() int64 {
	if p.r != nil {
		return p.r.Size()
	}
	return p.size
}

func (p *plfsFile) Close() error {
	if p.closed {
		return errors.New("adio: double close")
	}
	p.closed = true
	if p.w != nil {
		return p.w.Close()
	}
	return p.r.Close()
}

// ---------------------------------------------------------------------
// Collective buffering (two-phase I/O).

func maybeCB(ctx plfs.Ctx, f File, hints Hints) File {
	if !hints.CollectiveBuffering || ctx.Comm == nil || ctx.Comm.Size() == 1 {
		return f
	}
	return newCBFile(ctx, f, hints)
}

// cbFile layers two-phase collective buffering over any driver file.
// Aggregators are the lowest rank on each node; collective accesses are
// exchanged over the interconnect (node-local gather, then an aggregator
// alltoall) and issued to the file system as large contiguous operations
// on per-aggregator file domains.
type cbFile struct {
	ctx   plfs.Ctx
	inner File
	hints Hints

	nodeComm comm.Comm // ranks sharing my node
	aggComm  comm.Comm // aggregators (node leaders)
	isAgg    bool
	nAggs    int
	size     int64
}

func newCBFile(ctx plfs.Ctx, inner File, hints Hints) *cbFile {
	c := ctx.Comm
	node := c.Rank() / hints.ProcsPerNode
	nodeComm := c.Split(node, c.Rank())
	isAgg := nodeComm.Rank() == 0
	color := 0
	if !isAgg {
		color = 1 + node
	}
	aggComm := c.Split(color, c.Rank())
	nAggs := (c.Size() + hints.ProcsPerNode - 1) / hints.ProcsPerNode
	return &cbFile{
		ctx: ctx, inner: inner, hints: hints,
		nodeComm: nodeComm, aggComm: aggComm, isAgg: isAgg, nAggs: nAggs,
	}
}

type cbPiece struct {
	Off int64
	P   payload.Payload
}

// domains partitions [lo, hi) evenly across aggregators.
func domains(lo, hi int64, n int) []int64 {
	bounds := make([]int64, n+1)
	span := hi - lo
	for i := 0; i <= n; i++ {
		bounds[i] = lo + span*int64(i)/int64(n)
	}
	return bounds
}

func (f *cbFile) WriteAt(off int64, p payload.Payload) error { return f.inner.WriteAt(off, p) }
func (f *cbFile) ReadAt(off, n int64) (payload.List, error)  { return f.inner.ReadAt(off, n) }

// WriteAtAll performs a two-phase collective write of one contiguous
// piece per rank.
func (f *cbFile) WriteAtAll(off int64, p payload.Payload) error {
	if end := off + p.Len(); end > f.size {
		f.size = end
	}
	return f.writeAllPieces([]cbPiece{{off, p}})
}

// writeAllPieces is the two-phase collective write over each rank's
// (possibly noncontiguous) piece list.
func (f *cbFile) writeAllPieces(rankPieces []cbPiece) error {
	var sendBytes int64 = 16
	for _, pc := range rankPieces {
		sendBytes += pc.P.Len() + 16
	}
	// Phase 0: node-local gather of pieces to the node aggregator.
	pieces := f.nodeComm.Gather(0, sendBytes, rankPieces)
	if !f.isAgg {
		f.nodeComm.Barrier() // wait for aggregators to finish the round
		return nil
	}
	// Compute the global extent among aggregators.
	var lo, hi int64 = 1 << 62, -1
	var mine []cbPiece
	for _, v := range pieces {
		for _, pc := range v.([]cbPiece) {
			mine = append(mine, pc)
			if pc.Off < lo {
				lo = pc.Off
			}
			if end := pc.Off + pc.P.Len(); end > hi {
				hi = end
			}
		}
	}
	exts := f.aggComm.Allgather(16, [2]int64{lo, hi})
	for _, v := range exts {
		e := v.([2]int64)
		if e[0] < lo {
			lo = e[0]
		}
		if e[1] > hi {
			hi = e[1]
		}
	}
	if hi <= lo {
		f.nodeComm.Barrier()
		return nil
	}
	// Phase 1: exchange pieces so each aggregator holds its file domain.
	bounds := domains(lo, hi, f.nAggs)
	na := f.aggComm.Size()
	outgoing := make([][]cbPiece, na)
	var outBytes []int64 = make([]int64, na)
	for _, pc := range mine {
		splitPieceByDomain(pc, bounds, func(d int, sub cbPiece) {
			if d >= na {
				d = na - 1
			}
			outgoing[d] = append(outgoing[d], sub)
			outBytes[d] += sub.P.Len() + 16
		})
	}
	vs := make([]any, na)
	for i := range vs {
		vs[i] = outgoing[i]
	}
	recv := f.aggComm.Alltoall(outBytes, vs)
	// Phase 2: issue large contiguous writes for my domain.
	var domainPieces []cbPiece
	for _, v := range recv {
		domainPieces = append(domainPieces, v.([]cbPiece)...)
	}
	if err := f.writeCoalesced(domainPieces); err != nil {
		f.nodeComm.Barrier()
		return err
	}
	f.nodeComm.Barrier()
	return nil
}

// cbBufferSize caps the run an aggregator writes in one call, ROMIO's
// cb_buffer_size.
const cbBufferSize = 16 << 20

// writeCoalesced plans the domain's pieces into maximal contiguous runs
// (extent.Plan with gap 0, capped at cbBufferSize) and issues each
// run as one vectored write to the base file.  Overlapping pieces stay
// in one run and resolve through the overlay in ascending gather order.
func (f *cbFile) writeCoalesced(pieces []cbPiece) error {
	ext := func(i int) extent.Ext {
		return extent.Ext{Off: pieces[i].Off, Len: pieces[i].P.Len()}
	}
	for _, b := range extent.Plan(len(pieces), nil, ext, 0, cbBufferSize) {
		var win payload.File
		for _, it := range b.Items {
			win.WriteAt(pieces[it].Off, pieces[it].P)
		}
		if err := f.inner.WriteAtv([]Seg{{Off: b.Off, Len: b.Len}}, win.ReadAt(b.Off, b.Len)); err != nil {
			return err
		}
	}
	return nil
}

// ReadAtAll performs a two-phase collective read of one contiguous
// extent per rank.
func (f *cbFile) ReadAtAll(off, n int64) (payload.List, error) {
	return f.readAllSegs([]Seg{{Off: off, Len: n}})
}

// readAllSegs is the two-phase collective read over each rank's
// (possibly noncontiguous) segment list; the result concatenates the
// rank's segments in order, holes as zeros.
func (f *cbFile) readAllSegs(segs []Seg) (payload.List, error) {
	// Phase 0: gather requests at the node aggregator.
	reqs := f.nodeComm.Gather(0, int64(len(segs))*16+16, segs)
	var err error
	if f.isAgg {
		// Aggregators compute the global extent.
		var lo, hi int64 = 1 << 62, -1
		for _, v := range reqs {
			for _, e := range v.([]Seg) {
				if e.Len <= 0 {
					continue
				}
				if e.Off < lo {
					lo = e.Off
				}
				if e.End() > hi {
					hi = e.End()
				}
			}
		}
		exts := f.aggComm.Allgather(16, [2]int64{lo, hi})
		for _, v := range exts {
			e := v.([2]int64)
			if e[0] < lo {
				lo = e[0]
			}
			if e[1] > hi {
				hi = e[1]
			}
		}
		if hi > lo {
			// Phase 1: read my domain contiguously.
			bounds := domains(lo, hi, f.nAggs)
			me := f.aggComm.Rank()
			dlo, dhi := bounds[me], bounds[min(me+1, len(bounds)-1)]
			var domain payload.List
			if dhi > dlo {
				domain, err = f.inner.ReadAt(dlo, dhi-dlo)
			}
			// Phase 2: aggregator alltoall so each aggregator holds the
			// bytes its node's ranks asked for.
			type domainChunk struct {
				Lo int64
				Pl payload.List
			}
			na := f.aggComm.Size()
			vs := make([]any, na)
			nb := make([]int64, na)
			// Every aggregator needs the slices of my domain overlapping
			// its node's requests; send the whole domain (requests are
			// typically dense in checkpoint restores).
			for i := range vs {
				vs[i] = domainChunk{dlo, domain}
				nb[i] = domain.Len()
			}
			recv := f.aggComm.Alltoall(nb, vs)
			// Assemble each segment a rank asked for from the domains.
			assemble := func(e Seg) payload.List {
				var out payload.List
				cur := e.Off
				for cur < e.End() {
					found := false
					for _, dv := range recv {
						dc := dv.(domainChunk)
						dEnd := dc.Lo + dc.Pl.Len()
						if cur >= dc.Lo && cur < dEnd {
							take := min64(dEnd-cur, e.End()-cur)
							out = out.Concat(dc.Pl.Slice(cur-dc.Lo, take))
							cur += take
							found = true
							break
						}
					}
					if !found {
						out = out.Append(payload.Zeros(e.End() - cur))
						cur = e.End()
					}
				}
				return out
			}
			assembled := make(map[int]payload.List, len(reqs))
			for ri, v := range reqs {
				var out payload.List
				for _, e := range v.([]Seg) {
					if e.Len <= 0 {
						continue
					}
					out = out.Concat(assemble(e))
				}
				assembled[ri] = out
			}
			// Phase 3: scatter results back within the node.
			outs := make([]any, f.nodeComm.Size())
			var per int64
			for ri := range outs {
				outs[ri] = assembled[ri]
				per += assembled[ri].Len()
			}
			got := f.nodeComm.Scatter(0, per/int64(len(outs))+1, outs)
			return got.(payload.List), err
		}
	}
	if !f.isAgg {
		got := f.nodeComm.Scatter(0, segTotal(segs), nil)
		return got.(payload.List), nil
	}
	// Degenerate empty extent.
	outs := make([]any, f.nodeComm.Size())
	for i := range outs {
		outs[i] = payload.List(nil)
	}
	got := f.nodeComm.Scatter(0, 0, outs)
	return got.(payload.List), nil
}

func (f *cbFile) Size() int64 {
	if s := f.inner.Size(); s > f.size {
		return s
	}
	return f.size
}

func (f *cbFile) Close() error { return f.inner.Close() }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// splitPieceByDomain cuts a piece at domain boundaries (extent.Split
// carries the clamping semantics; this only slices the payload along).
func splitPieceByDomain(pc cbPiece, bounds []int64, emit func(d int, sub cbPiece)) {
	extent.Split(extent.Ext{Off: pc.Off, Len: pc.P.Len()}, bounds, func(d int, sub extent.Ext) {
		emit(d, cbPiece{sub.Off, pc.P.Slice(sub.Off-pc.Off, sub.Len)})
	})
}
