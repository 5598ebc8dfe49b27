package objfs

import (
	"path"
	"sort"
	"strings"
	"time"

	"plfs/internal/extent"
	"plfs/internal/fault"
	"plfs/internal/payload"
	"plfs/internal/plfs"
	"plfs/internal/sim"
)

// Backend implements plfs.Backend over one Store.  The path→key mapping
// is the identity: a file is the object at its path, a directory is the
// zero-byte marker object at `path/` plus whatever keys share the
// prefix, and every Backend method translates to PUT/GET/HEAD/LIST/
// DELETE requests with their costs.
//
// A Backend is bound to one simulated process (the *sim.Proc costs are
// charged to); build one per rank via Ctx or Vols.  Over an engineless
// store the proc is nil and operations are free.
type Backend struct {
	s *Store
	p *sim.Proc
}

var (
	_ plfs.Backend    = Backend{}
	_ plfs.CondPutter = Backend{}
)

// Vol returns an engineless Backend over s (unit tests, conformance
// suite).  For sim-bound stores use Ctx/Vols, which bind the calling
// process.
func Vol(s *Store) Backend { return Backend{s: s} }

// Vols builds the per-volume backend set a plfs.Ctx wants: volumes
// slots, all reaching the same flat store, each charging costs to p.
func Vols(s *Store, p *sim.Proc, volumes int) []plfs.Backend {
	out := make([]plfs.Backend, volumes)
	for i := range out {
		out[i] = Backend{s: s, p: p}
	}
	return out
}

// Ctx assembles a complete plfs.Ctx for a simulated process (the objfs
// analogue of simfs.Ctx).
func Ctx(s *Store, volumes, node int, p *sim.Proc, rank, procsPerNode int) plfs.Ctx {
	return plfs.Ctx{
		Vols:       Vols(s, p, volumes),
		Rank:       rank,
		Host:       node,
		HostLeader: rank%procsPerNode == 0,
		Clock:      plfs.ClockFunc(func() int64 { return int64(p.Now()) }),
		Sleep:      procSleeper{p},
	}
}

// FaultCtx is Ctx with every volume routed through the fault injector
// (nil yields a plain Ctx).  The injector's volume index keys latency
// and brownout schedules exactly as over simfs, even though every slot
// reaches the same flat store.
func FaultCtx(s *Store, volumes, node int, p *sim.Proc, rank, procsPerNode int, inj *fault.Injector) plfs.Ctx {
	ctx := Ctx(s, volumes, node, p, rank, procsPerNode)
	if inj != nil {
		ctx.Vols = inj.WrapVols(ctx.Vols, ctx.Sleep)
	}
	return ctx
}

type procSleeper struct{ p *sim.Proc }

func (s procSleeper) Sleep(d time.Duration) { s.p.Sleep(d) }

// existsLocked reports whether path is taken, as a file or a prefix.
func (b Backend) existsLocked(path string) bool {
	if _, ok := b.s.objs[path]; ok {
		return true
	}
	_, ok := b.s.objs[markerKey(path)]
	return ok
}

// admitLocked returns nil if a new file (or, with dir, a directory
// marker) may take the name p, else why not.  A name is a file or a
// directory, never both: p must be free, no ancestor of p may be a file,
// and a file may not take the name of a directory, marked or implied by
// keys below it.  p must also be clean, so every key has one spelling.
func (b Backend) admitLocked(p string, dir bool) error {
	if path.Clean(p) != p {
		return ErrInvalid
	}
	for d := path.Dir(p); d != "/" && d != "."; d = path.Dir(d) {
		if _, ok := b.s.objs[d]; ok {
			return ErrNotDir
		}
	}
	if b.existsLocked(p) || (!dir && len(b.s.scanLocked(markerKey(p))) > 0) {
		b.s.conflicts.Add(1)
		return ErrExist
	}
	return nil
}

// Mkdir implements plfs.Backend: a conditional put-if-absent of the
// prefix marker object.  There is no parent to lock — or to require:
// creating "a/b/c" never touches "a/b".
func (b Backend) Mkdir(path string) error {
	b.s.service(b.p, b.s.cfg.PutOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.puts.Add(1)
	b.s.condPuts.Add(1)
	if err := b.admitLocked(path, true); err != nil {
		return err
	}
	b.s.insertLocked(markerKey(path))
	return nil
}

// Create implements plfs.Backend: a conditional put-if-absent of an
// empty object — exclusive, as the container protocol's reliance on
// EEXIST requires.
func (b Backend) Create(path string) (plfs.File, error) {
	b.s.service(b.p, b.s.cfg.PutOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.puts.Add(1)
	b.s.condPuts.Add(1)
	if err := b.admitLocked(path, false); err != nil {
		return nil, err
	}
	o := b.s.insertLocked(path)
	return &file{s: b.s, p: b.p, o: o}, nil
}

// open resolves path to its object with one HEAD.
func (b Backend) open(path string) (*file, error) {
	b.s.service(b.p, b.s.cfg.HeadOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.heads.Add(1)
	o, ok := b.s.objs[path]
	if !ok {
		if _, dir := b.s.objs[markerKey(path)]; dir {
			return nil, ErrIsDir
		}
		return nil, ErrNotExist
	}
	return &file{s: b.s, p: b.p, o: o}, nil
}

// OpenRead implements plfs.Backend.
func (b Backend) OpenRead(path string) (plfs.File, error) {
	f, err := b.open(path)
	if err != nil {
		return nil, err
	}
	f.ro = true
	return f, nil
}

// OpenWrite implements plfs.Backend: parts may be added to an existing
// object without truncation.
func (b Backend) OpenWrite(path string) (plfs.File, error) { return b.open(path) }

// Stat implements plfs.Backend: one HEAD; a path whose marker (or any
// deeper key) exists reports as a directory.
func (b Backend) Stat(p string) (plfs.Info, error) {
	b.s.service(b.p, b.s.cfg.HeadOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.heads.Add(1)
	if o, ok := b.s.objs[p]; ok {
		return plfs.Info{Name: path.Base(p), Size: o.data.Size()}, nil
	}
	marker := markerKey(p)
	if _, ok := b.s.objs[marker]; ok {
		return plfs.Info{Name: path.Base(p), Dir: true}, nil
	}
	if len(b.s.scanLocked(marker)) > 0 {
		return plfs.Info{Name: path.Base(p), Dir: true}, nil
	}
	return plfs.Info{}, ErrNotExist
}

// ReadDir implements plfs.Backend as a bounded prefix scan: every key
// below `path/` is scanned in pages of Config.ListPage, and the
// one-level view is assembled client-side (deeper keys collapse into
// their first path segment, like a delimiter listing).  The cost is
// proportional to the object population under the prefix — a container
// with thousands of droppings pays for all of them on every listing,
// the flat namespace's price for its convoy-free creates.
func (b Backend) ReadDir(p string) ([]plfs.Info, error) {
	marker := markerKey(p)
	b.s.mu.Lock()
	_, hasMarker := b.s.objs[marker]
	keys := b.s.scanLocked(marker)
	b.s.mu.Unlock()
	if !hasMarker && len(keys) == 0 {
		b.s.service(b.p, b.s.cfg.ListOp)
		b.s.listPages.Add(1)
		return nil, ErrNotExist
	}
	pages := (len(keys) + b.s.cfg.ListPage - 1) / b.s.cfg.ListPage
	if pages < 1 {
		pages = 1
	}
	for i := 0; i < pages; i++ {
		n := b.s.cfg.ListPage
		if rest := len(keys) - i*b.s.cfg.ListPage; rest < n {
			n = rest
		}
		b.s.listPage(b.p, time.Duration(n)*b.s.cfg.ListKey)
	}
	b.s.listPages.Add(int64(pages))
	b.s.listKeys.Add(int64(len(keys)))

	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	var out []plfs.Info
	seen := map[string]bool{}
	for _, k := range keys {
		rest := strings.TrimPrefix(k, marker)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			name := rest[:i]
			if !seen[name] {
				seen[name] = true
				out = append(out, plfs.Info{Name: name, Dir: true})
			}
			continue
		}
		if o, ok := b.s.objs[k]; ok {
			out = append(out, plfs.Info{Name: rest, Size: o.data.Size()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove implements plfs.Backend: one DELETE.  Removing a prefix marker
// with keys still below it fails with ErrNotEmpty, mirroring rmdir.
func (b Backend) Remove(path string) error {
	b.s.service(b.p, b.s.cfg.DeleteOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.deletes.Add(1)
	if _, ok := b.s.objs[path]; ok {
		b.s.deleteLocked(path)
		return nil
	}
	marker := markerKey(path)
	if _, ok := b.s.objs[marker]; ok {
		if len(b.s.scanLocked(marker)) > 0 {
			return ErrNotEmpty
		}
		b.s.deleteLocked(marker)
		return nil
	}
	return ErrNotExist
}

// Rename implements plfs.Backend.  Object stores have no rename: a file
// becomes copy + delete (two requests plus the byte movement), and a
// prefix becomes one copy + delete per key below it — the expensive
// directory-rename story the capability matrix warns about.  A taken
// target fails with ErrExist and leaves the source untouched, the same
// no-replace verdict the simulated POSIX volume gives; the commit
// protocol never renames over an existing name without removing it
// first, and over objfs it does not rename at all (conditional PUT).
func (b Backend) Rename(oldPath, newPath string) error {
	b.s.service(b.p, b.s.cfg.HeadOp)
	b.s.mu.Lock()
	b.s.heads.Add(1)
	if b.existsLocked(newPath) {
		b.s.mu.Unlock()
		return ErrExist
	}
	if _, ok := b.s.objs[oldPath]; ok {
		b.s.mu.Unlock()
		return b.renameKey(oldPath, newPath)
	}
	oldMarker := markerKey(oldPath)
	if _, ok := b.s.objs[oldMarker]; !ok {
		b.s.mu.Unlock()
		return ErrNotExist
	}
	keys := append([]string{oldMarker}, b.s.scanLocked(oldMarker)...)
	b.s.mu.Unlock()
	newMarker := markerKey(newPath)
	for _, k := range keys {
		if err := b.renameKey(k, newMarker+strings.TrimPrefix(k, oldMarker)); err != nil {
			return err
		}
	}
	return nil
}

// renameKey moves one key: a server-side copy (PUT) plus a DELETE.
func (b Backend) renameKey(oldKey, newKey string) error {
	b.s.mu.Lock()
	o, ok := b.s.objs[oldKey]
	size := int64(0)
	if ok {
		size = o.data.Size()
	}
	b.s.mu.Unlock()
	if !ok {
		return ErrNotExist
	}
	b.s.service(b.p, b.s.cfg.PutOp)
	b.s.transfer(b.p, size)
	b.s.service(b.p, b.s.cfg.DeleteOp)
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.puts.Add(1)
	b.s.deletes.Add(1)
	if cur, still := b.s.objs[oldKey]; !still || cur != o {
		return ErrNotExist // raced away while the copy was in flight
	}
	b.s.deleteLocked(oldKey)
	if _, taken := b.s.objs[newKey]; !taken {
		b.s.insertLocked(newKey)
	}
	moved := b.s.objs[newKey]
	moved.data = o.data
	moved.gen++
	return nil
}

// PutIfAbsent implements plfs.CondPutter: one atomic conditional PUT of
// the whole object.  A taken key fails with ErrExist; nothing is ever
// half-published — this is the primitive that replaces the POSIX
// create-temp/append/rename commit.
func (b Backend) PutIfAbsent(path string, data []byte) error {
	b.s.service(b.p, b.s.cfg.PutOp)
	b.s.transfer(b.p, int64(len(data)))
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.puts.Add(1)
	b.s.condPuts.Add(1)
	b.s.bytesIn.Add(int64(len(data)))
	if err := b.admitLocked(path, false); err != nil {
		return err
	}
	o := b.s.insertLocked(path)
	if len(data) > 0 {
		o.data.WriteAt(0, payload.FromBytes(append([]byte(nil), data...)))
	}
	return nil
}

// PutReplace implements plfs.CondPutter: a put-if-generation loop's
// single step.  It HEADs the key for its current generation, then PUTs
// conditioned on it; a writer that republished the key in between makes
// the PUT fail with a transient ConflictError, and the caller's retry
// re-reads and reissues.  Either the whole new object is visible or the
// old one still is.
func (b Backend) PutReplace(path string, data []byte) error {
	b.s.service(b.p, b.s.cfg.HeadOp)
	b.s.mu.Lock()
	b.s.heads.Add(1)
	want := int64(genAbsent)
	if o, ok := b.s.objs[path]; ok {
		want = o.gen
	}
	b.s.mu.Unlock()

	b.s.service(b.p, b.s.cfg.PutOp)
	b.s.transfer(b.p, int64(len(data)))
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	b.s.puts.Add(1)
	b.s.condPuts.Add(1)
	b.s.bytesIn.Add(int64(len(data)))
	have := int64(genAbsent)
	o := b.s.objs[path]
	if o != nil {
		have = o.gen
	}
	if have != want {
		b.s.conflicts.Add(1)
		return &ConflictError{Key: path, Want: want, Have: have}
	}
	if o == nil {
		o = b.s.insertLocked(path)
	}
	o.data = payload.File{}
	if len(data) > 0 {
		o.data.WriteAt(0, payload.FromBytes(append([]byte(nil), data...)))
	}
	o.gen++
	return nil
}

// file is an open object handle.  Writes are part uploads (each costs a
// PUT plus the byte movement), reads are GETs; there are no range locks
// to take — the store never implements plfs.RangeLocker, which is
// precisely why direct N-1 RMW workloads must not assume sieving safety
// over it (see the capability matrix in README).
type file struct {
	s  *Store
	p  *sim.Proc
	o  *object
	ro bool
}

// WriteAt implements plfs.File as a part upload at an explicit offset.
func (f *file) WriteAt(off int64, p payload.Payload) error {
	f.s.service(f.p, f.s.cfg.PutOp)
	f.s.transfer(f.p, p.Len())
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.puts.Add(1)
	f.s.bytesIn.Add(p.Len())
	f.o.data.WriteAt(off, p)
	f.o.gen++
	return nil
}

// Append implements plfs.File: a part upload at the object's tail.
func (f *file) Append(p payload.Payload) (int64, error) {
	f.s.service(f.p, f.s.cfg.PutOp)
	f.s.transfer(f.p, p.Len())
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.puts.Add(1)
	f.s.bytesIn.Add(p.Len())
	f.o.gen++
	return f.o.data.Append(p), nil
}

// ReadAt implements plfs.File: one GET.  Holes and the overhang past the
// last written byte read as zeros (sparse-object semantics, identical to
// the simulated POSIX store; PLFS bounds reads by the logical size).
func (f *file) ReadAt(off, n int64) (payload.List, error) {
	f.s.service(f.p, f.s.cfg.GetOp)
	f.s.transfer(f.p, n)
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.gets.Add(1)
	f.s.bytesOut.Add(n)
	return f.o.data.ReadAt(off, n), nil
}

// Size implements plfs.File (free: the size came with the open HEAD).
func (f *file) Size() int64 {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return f.o.data.Size()
}

// Close implements plfs.File.  The handle is client-side state; closing
// costs nothing.
func (f *file) Close() error { return nil }

// WritevAt implements plfs.VectoredIO: K extents ship as one request —
// one round trip, one service slot, the bytes in one transfer.
func (f *file) WritevAt(segs []extent.Ext, data payload.List) error {
	f.s.service(f.p, f.s.cfg.PutOp)
	f.s.transfer(f.p, data.Len())
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.puts.Add(1)
	f.s.bytesIn.Add(data.Len())
	pos := int64(0)
	for _, seg := range segs {
		off := seg.Off
		for _, p := range data.Slice(pos, seg.Len) {
			f.o.data.WriteAt(off, p)
			off += p.Len()
		}
		pos += seg.Len
	}
	f.o.gen++
	return nil
}

// ReadvAt implements plfs.VectoredIO: one GET covering all extents.
func (f *file) ReadvAt(segs []extent.Ext) (payload.List, error) {
	var total int64
	for _, seg := range segs {
		total += seg.Len
	}
	f.s.service(f.p, f.s.cfg.GetOp)
	f.s.transfer(f.p, total)
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.gets.Add(1)
	f.s.bytesOut.Add(total)
	var out payload.List
	for _, seg := range segs {
		out = out.Concat(f.o.data.ReadAt(seg.Off, seg.Len))
	}
	return out, nil
}

// Appendv implements plfs.BatchAppender: the batch lands as one part
// upload.
func (f *file) Appendv(pl payload.List) (int64, error) {
	f.s.service(f.p, f.s.cfg.PutOp)
	f.s.transfer(f.p, pl.Len())
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.puts.Add(1)
	f.s.bytesIn.Add(pl.Len())
	f.o.gen++
	off := f.o.data.Size()
	for _, p := range pl {
		f.o.data.Append(p)
	}
	return off, nil
}
