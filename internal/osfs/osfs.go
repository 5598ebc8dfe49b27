// Package osfs binds the PLFS Backend interface to the real operating
// system filesystem, so PLFS runs as an actual middleware library over a
// local directory tree (the role the underlying parallel file system's
// mount plays in production).
package osfs

import (
	"io"
	"os"
	"sort"
	"sync"

	"plfs/internal/extent"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// FS implements plfs.Backend over the host filesystem; paths are passed
// through verbatim.  Build one with New: each FS carries its own path-lock
// table, so unrelated mounts never contend on (or even see) each other's
// locks.
type FS struct {
	locks *pathLockTable
}

var (
	_ plfs.Backend = FS{}
	_ plfs.Flusher = (*file)(nil)
)

// New returns an OS-filesystem backend with a private path-lock table.
func New() FS { return FS{locks: newPathLockTable()} }

// ConcurrentIO reports that handles tolerate concurrent goroutine use:
// positional reads are pread(2) calls with no shared cursor, and
// Open/Close are independent syscalls.  No PLFS path asks for it; it is
// kept because the benchmark module's traced wrapper forwards it.
func (FS) ConcurrentIO() bool { return true }

// Mkdir implements plfs.Backend.
func (FS) Mkdir(path string) error { return os.Mkdir(path, 0o755) }

// Create implements plfs.Backend.  Creation is exclusive, matching the
// container protocol's reliance on EEXIST.
func (fs FS) Create(path string) (plfs.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{f: f, path: path, locks: fs.locks}, nil
}

// CreateBulk implements plfs.BulkCreator.  A local filesystem has no
// bulk-create RPC, so the batch applies as an in-order loop — the
// capability here is a correctness contract (per-entry verdicts, entries
// applied in order, files left closed), not an amortization: a real MDS
// backend makes the same batch one round trip.  It exists so the batched
// collective open path runs over the POSIX rig, where the fault wrapper
// can still gate every entry individually.
func (fs FS) CreateBulk(ops []plfs.BulkOp) []error {
	errs := make([]error, len(ops))
	for i, op := range ops {
		if op.Dir {
			errs[i] = fs.Mkdir(op.Path)
			continue
		}
		f, err := fs.Create(op.Path)
		if err == nil {
			err = f.Close()
		}
		errs[i] = err
	}
	return errs
}

// OpenRead implements plfs.Backend.
func (fs FS) OpenRead(path string) (plfs.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{f: f, path: path, locks: fs.locks, end: -1}, nil
}

// OpenWrite implements plfs.Backend: open an existing file for writing
// without truncation.
func (fs FS) OpenWrite(path string) (plfs.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{f: f, path: path, locks: fs.locks, end: -1}, nil
}

// Stat implements plfs.Backend.
func (FS) Stat(path string) (plfs.Info, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return plfs.Info{}, err
	}
	return plfs.Info{Name: fi.Name(), Dir: fi.IsDir(), Size: fi.Size()}, nil
}

// ReadDir implements plfs.Backend.
func (FS) ReadDir(path string) ([]plfs.Info, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	out := make([]plfs.Info, 0, len(ents))
	for _, e := range ents {
		info := plfs.Info{Name: e.Name(), Dir: e.IsDir()}
		if !e.IsDir() {
			if fi, err := e.Info(); err == nil {
				info.Size = fi.Size()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Remove implements plfs.Backend.
func (FS) Remove(path string) error { return os.Remove(path) }

// Rename implements plfs.Backend.
func (FS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Write-behind sizes of a handle's log, fixed by the op-size x buffer-size
// sweep in EXPERIMENTS.md "Small-write path host cost (PR 19)": below
// coalesceBelow a pwrite costs more than copying the bytes, and past
// coalesceFlush pending bytes a larger write buys nothing.
const (
	coalesceBelow = 16 << 10
	coalesceFlush = 256 << 10
)

// file is one handle.  An append of coalesceBelow bytes or more goes to the
// kernel straight from a byte payload's own slice (DESIGN.md §16.1: bytes
// handed to a write are immutable); synthetic and zero payloads are rendered
// into scratch.  A smaller one is copied into pend, which lands with one
// pwrite once coalesceFlush bytes are pending and before any other call on
// the handle does its work, so the handle always reads its own writes.  The
// handle tracks its own end-of-file, so an append's offset is end plus what
// is pending, with no syscall — sound because a path has one appending
// handle at a time (§16.1).
type file struct {
	f       *os.File
	path    string
	locks   *pathLockTable
	end     int64  // 0 after Create, else negative until the first append's lseek
	scratch []byte // reused rendering/concatenation buffer
	pend    []byte // appended bytes not yet written; they belong at end
	err     error  // the first failed flush; the offsets it voided make it final
}

// bytesOf returns p's contents: its own slice when materialized, else
// rendered into the handle's scratch buffer (valid until the next call).
func (f *file) bytesOf(p payload.Payload) []byte {
	if p.Bytes != nil {
		return p.Bytes
	}
	f.scratch = p.AppendTo(f.scratch[:0])
	return f.scratch
}

// pwrite writes b at off and keeps the tracked end ahead of every byte
// that landed, including the prefix of a failed write.
func (f *file) pwrite(b []byte, off int64) error {
	n, err := f.f.WriteAt(b, off)
	if e := off + int64(n); f.end >= 0 && e > f.end {
		f.end = e
	}
	return err
}

// Flush implements plfs.Flusher: the pending appends land with one pwrite
// at the tracked end.  A failure is sticky — the offsets already returned
// for the lost bytes are void, so the handle refuses everything after it.
// With nothing pending it only reads handle state: the reader fans ReadAt
// out across goroutines on a handle that never appended.
func (f *file) Flush() error {
	if len(f.pend) == 0 {
		return f.err
	}
	f.err = f.pwrite(f.pend, f.end)
	f.pend = f.pend[:0]
	return f.err
}

// tail returns the offset the next appended byte lands at.
func (f *file) tail() (int64, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.end < 0 {
		end, err := f.f.Seek(0, io.SeekEnd)
		if err != nil {
			return 0, err
		}
		f.end = end
	}
	return f.end + int64(len(f.pend)), nil
}

// coalesce copies an append of n < coalesceBelow bytes behind the pending
// ones.  The buffer doubles up to the most it can ever hold, so a handle
// that appends a few bytes and closes (a commit temp file, a two-record
// footer) does not pay for a log's buffer.
func (f *file) coalesce(n int64, pl ...payload.Payload) (int64, error) {
	off, err := f.tail()
	if err != nil {
		return 0, err
	}
	if need := len(f.pend) + int(n); need > cap(f.pend) {
		grown := make([]byte, len(f.pend), min(max(need, 2*cap(f.pend)), coalesceFlush+coalesceBelow))
		copy(grown, f.pend)
		f.pend = grown
	}
	for _, p := range pl {
		f.pend = p.AppendTo(f.pend)
	}
	if len(f.pend) < coalesceFlush {
		return off, nil
	}
	return off, f.Flush()
}

// appendBytes lands b at the tracked end-of-file, behind whatever was
// pending.
func (f *file) appendBytes(b []byte) (int64, error) {
	if err := f.Flush(); err != nil {
		return 0, err
	}
	off, err := f.tail()
	if err != nil {
		return 0, err
	}
	return off, f.pwrite(b, off)
}

func (f *file) WriteAt(off int64, p payload.Payload) error {
	if err := f.Flush(); err != nil {
		return err
	}
	return f.pwrite(f.bytesOf(p), off)
}

func (f *file) Append(p payload.Payload) (int64, error) {
	if n := p.Len(); n < coalesceBelow {
		return f.coalesce(n, p)
	}
	return f.appendBytes(f.bytesOf(p))
}

func (f *file) ReadAt(off, n int64) (payload.List, error) {
	if err := f.Flush(); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	read, err := f.f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if n > 0 && int64(read) == n {
		return payload.List{payload.FromBytes(buf)}, nil
	}
	// Reads past EOF return zeros, matching the simulated store's
	// sparse-object semantics (PLFS bounds reads by the logical size).
	out := make(payload.List, 0, 2)
	out = out.Append(payload.FromBytes(buf[:read]))
	return out.Append(payload.Zeros(n - int64(read))), nil
}

// Size cannot report a failed flush; the error is sticky, so the next call
// that returns one does.
func (f *file) Size() int64 {
	f.Flush()
	fi, err := f.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (f *file) Close() error {
	err := f.Flush()
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WritevAt implements plfs.VectoredIO: the host kernel has no listio
// syscall, so the batch degrades to a pwrite per extent — the win here is
// the single middleware call, not fewer syscalls.
func (f *file) WritevAt(segs []extent.Ext, data payload.List) error {
	if err := f.Flush(); err != nil {
		return err
	}
	var pos int64
	for _, e := range segs {
		off := e.Off
		for _, p := range data.Slice(pos, e.Len) {
			if err := f.pwrite(f.bytesOf(p), off); err != nil {
				return err
			}
			off += p.Len()
		}
		pos += e.Len
	}
	return nil
}

// ReadvAt implements plfs.VectoredIO: one buffer for the whole request, a
// pread per extent into its window.  The buffer starts zeroed, so an
// extent past EOF reads as zeros with no further work.
func (f *file) ReadvAt(segs []extent.Ext) (payload.List, error) {
	if err := f.Flush(); err != nil {
		return nil, err
	}
	var total int64
	for _, e := range segs {
		total += max(e.Len, 0)
	}
	buf := make([]byte, total)
	var pos int64
	for _, e := range segs {
		if e.Len <= 0 {
			continue
		}
		if _, err := f.f.ReadAt(buf[pos:pos+e.Len], e.Off); err != nil && err != io.EOF {
			return nil, err
		}
		pos += e.Len
	}
	return payload.List(nil).Append(payload.FromBytes(buf)), nil
}

// Appendv implements plfs.BatchAppender: the concatenated pieces land
// contiguously at the tracked end-of-file, coalesced like one Append of
// their total size.
func (f *file) Appendv(pl payload.List) (int64, error) {
	if n := pl.Len(); n < coalesceBelow {
		return f.coalesce(n, pl...)
	}
	f.scratch = f.scratch[:0]
	for _, p := range pl {
		f.scratch = p.AppendTo(f.scratch)
	}
	return f.appendBytes(f.scratch)
}

// pathLockTable serializes RMW windows among one backend's writers,
// keyed by path — the stand-in for fcntl byte-range locks when all
// writers are goroutines of one process (fcntl locks are per-process, so
// they would not exclude our own goroutines anyway).  Entries are
// refcounted: the map holds a lock only while some goroutine holds or
// awaits it, so a long-lived service does not accumulate one mutex per
// path ever locked.
type pathLockTable struct {
	mu sync.Mutex
	m  map[string]*pathLock
}

type pathLock struct {
	mu   sync.Mutex
	refs int // holders + waiters, guarded by pathLockTable.mu
}

func newPathLockTable() *pathLockTable {
	return &pathLockTable{m: make(map[string]*pathLock)}
}

// lock acquires the path's mutex, creating the entry on first use.
func (t *pathLockTable) lock(path string) {
	t.mu.Lock()
	l := t.m[path]
	if l == nil {
		l = new(pathLock)
		t.m[path] = l
	}
	l.refs++
	t.mu.Unlock()
	l.mu.Lock() // outside t.mu: waiting must not block other paths
}

// unlock releases the path's mutex and removes the entry once no holder
// or waiter remains.
func (t *pathLockTable) unlock(path string) {
	t.mu.Lock()
	l := t.m[path]
	if l == nil {
		t.mu.Unlock()
		panic("osfs: unlock of unlocked path " + path)
	}
	l.refs--
	if l.refs == 0 {
		delete(t.m, path)
	}
	t.mu.Unlock()
	l.mu.Unlock()
}

// entries reports the live lock count (tests).
func (t *pathLockTable) entries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// LockRange implements plfs.RangeLocker.  The grant is conservative:
// whole-file, ignoring off/n.
func (f *file) LockRange(off, n int64) error {
	f.locks.lock(f.path)
	return nil
}

// UnlockRange implements plfs.RangeLocker.
func (f *file) UnlockRange(off, n int64) error {
	f.locks.unlock(f.path)
	return nil
}
