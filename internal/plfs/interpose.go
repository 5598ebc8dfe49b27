package plfs

// The one forwarding decorator.  Everything that sits between PLFS and a
// store — the fault injector (internal/fault), the health tracker
// (health.go), the retry policy (retry.go), whatever per-layer
// telemetry comes next — is an interceptor function handed to Interpose;
// no other type outside the stores themselves forwards Backend or File
// calls.  Adding a backend operation therefore touches the stores, this
// file, and backendtest.

import (
	"plfs/internal/extent"
	"plfs/internal/payload"
)

// OpKind names the Backend or File call an Op describes.  Namespace
// kinds come first; from OpPutIfAbsent on, the call moves payload bytes
// (see OpKind.Data).
type OpKind uint8

// Interposed calls.  Size and Close are not interposed: they are
// bookkeeping on an already-open handle, neither faultable nor a health
// signal.
const (
	OpMkdir OpKind = iota
	OpCreate
	OpOpenRead
	OpOpenWrite
	OpStat
	OpReadDir
	OpRemove
	OpRename
	OpCreateBulk
	OpPutIfAbsent
	OpPutReplace
	OpWriteAt
	OpAppend
	OpReadAt
	OpWritevAt
	OpReadvAt
	OpAppendv
)

// Data reports whether the call transfers payload bytes (Op.Bytes of
// them), as opposed to a namespace operation.
func (k OpKind) Data() bool { return k >= OpPutIfAbsent }

// Op is one intercepted call.  The interceptor sees it before the store
// does and may rewrite the mutable fields to change what call() ships.
type Op struct {
	// Kind is mutable on a Create only: an interceptor may turn it into
	// an OpOpenWrite of the same path (the retry interceptor reopens a
	// file an earlier, failed attempt created).
	Kind OpKind
	// Path is the call's target; for File calls, the path the handle was
	// opened at.  Path2 is Rename's destination.
	Path, Path2 string
	// Bytes is the payload size of a Data call: bytes written, bytes
	// requested, or the conditional PUT's record length.
	Bytes int64
	// Segs are the extents of a WritevAt/ReadvAt.
	Segs []extent.Ext
	// Data holds the pieces of an Append (one) or Appendv.  Mutable:
	// call() lands whatever it holds when invoked, so an interceptor
	// models a torn write by shortening it to a prefix first.
	Data payload.List
	// Bulk is a CreateBulk batch.  Mutable: an interceptor that refuses
	// some entries ships the rest, and call() leaves the store's verdicts
	// for exactly the shipped entries in BulkErrs.  The interceptor then
	// sets BulkErrs to one verdict per entry of the caller's batch.
	Bulk     []BulkOp
	BulkErrs []error
}

// Interceptor wraps one backend call: it may refuse the call (return an
// error without invoking call), delay it, rewrite Op's mutable fields
// first, and observe the outcome.  It returns call's error unless it
// refused.  Interceptors must be safe for concurrent use: the ranks that
// share a store call them from their own goroutines.
type Interceptor = func(op *Op, call func() error) error

// Interpose returns inner with every Backend call, and every data call
// on the Files it opens, routed through ic.  The optional capabilities
// are handled once, here: CondPutter and BulkCreator calls are routed
// through ic like any other (reach them with CondPutterOf/BulkCreatorOf,
// which ask the leaf whether they exist), while RangeLocker concerns only
// the store and is asked of LeafFile directly.
func Interpose(inner Backend, ic Interceptor) Backend {
	return &interposed{inner: inner, ic: ic}
}

// Leaf returns the store at the bottom of b's interposer chain (b itself
// when nothing is interposed).  Optional capabilities are properties of
// the leaf: an interposer neither adds nor hides one.
func Leaf(b Backend) Backend {
	for {
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return b
		}
		b = u.Unwrap()
	}
}

// LeafFile is Leaf for an open handle.
func LeafFile(f File) File {
	for {
		u, ok := f.(interface{ Unwrap() File })
		if !ok {
			return f
		}
		f = u.Unwrap()
	}
}

// CondPutterOf returns b viewed as a CondPutter when the leaf under b is
// one: the leaf decides, but the outermost value is returned, so the
// call still passes through every interceptor on the way down.
func CondPutterOf(b Backend) (CondPutter, bool) {
	if _, ok := Leaf(b).(CondPutter); !ok {
		return nil, false
	}
	cp, ok := b.(CondPutter)
	return cp, ok
}

// BulkCreatorOf is CondPutterOf for the BulkCreator capability.
func BulkCreatorOf(b Backend) (BulkCreator, bool) {
	if _, ok := Leaf(b).(BulkCreator); !ok {
		return nil, false
	}
	bc, ok := b.(BulkCreator)
	return bc, ok
}

type interposed struct {
	inner Backend
	ic    Interceptor
}

// through runs one value-returning call under ic.
func through[T any](ic Interceptor, op *Op, do func() (T, error)) (v T, err error) {
	err = ic(op, func() (e error) {
		v, e = do()
		return e
	})
	return v, err
}

// Unwrap exposes the wrapped backend to Leaf.
func (b *interposed) Unwrap() Backend { return b.inner }

// The Backend methods: one Op each, forwarded under ic.

func (b *interposed) Mkdir(path string) error {
	return b.ic(&Op{Kind: OpMkdir, Path: path}, func() error { return b.inner.Mkdir(path) })
}

// open runs one of the three handle-returning calls — the one op.Kind
// names when call() is invoked — and interposes on the handle it yields.
func (b *interposed) open(kind OpKind, path string) (File, error) {
	op := &Op{Kind: kind, Path: path}
	f, err := through(b.ic, op, func() (File, error) {
		switch op.Kind {
		case OpCreate:
			return b.inner.Create(path)
		case OpOpenWrite:
			return b.inner.OpenWrite(path)
		}
		return b.inner.OpenRead(path)
	})
	if err != nil {
		return nil, err
	}
	return &interposedFile{inner: f, path: path, ic: b.ic}, nil
}

func (b *interposed) Create(path string) (File, error) { return b.open(OpCreate, path) }

func (b *interposed) OpenRead(path string) (File, error) { return b.open(OpOpenRead, path) }

func (b *interposed) OpenWrite(path string) (File, error) { return b.open(OpOpenWrite, path) }

func (b *interposed) Stat(path string) (Info, error) {
	return through(b.ic, &Op{Kind: OpStat, Path: path}, func() (Info, error) { return b.inner.Stat(path) })
}

func (b *interposed) ReadDir(path string) ([]Info, error) {
	return through(b.ic, &Op{Kind: OpReadDir, Path: path}, func() ([]Info, error) { return b.inner.ReadDir(path) })
}

func (b *interposed) Remove(path string) error {
	return b.ic(&Op{Kind: OpRemove, Path: path}, func() error { return b.inner.Remove(path) })
}

func (b *interposed) Rename(oldPath, newPath string) error {
	return b.ic(&Op{Kind: OpRename, Path: oldPath, Path2: newPath}, func() error {
		return b.inner.Rename(oldPath, newPath)
	})
}

// PutIfAbsent and PutReplace implement CondPutter for chains whose leaf
// does (callers establish that with CondPutterOf before asserting).
func (b *interposed) PutIfAbsent(path string, data []byte) error {
	return b.ic(&Op{Kind: OpPutIfAbsent, Path: path, Bytes: int64(len(data))}, func() error {
		return b.inner.(CondPutter).PutIfAbsent(path, data)
	})
}

func (b *interposed) PutReplace(path string, data []byte) error {
	return b.ic(&Op{Kind: OpPutReplace, Path: path, Bytes: int64(len(data))}, func() error {
		return b.inner.(CondPutter).PutReplace(path, data)
	})
}

// CreateBulk implements BulkCreator (see PutIfAbsent).  call reports the
// shipped batch's first entry error, so an interceptor that only watches
// outcomes sees the batch as the one RPC it is.  An interceptor that
// refuses the whole batch without shipping it fails every entry alike.
func (b *interposed) CreateBulk(ops []BulkOp) []error {
	op := &Op{Kind: OpCreateBulk, Bulk: ops}
	err := b.ic(op, func() error {
		op.BulkErrs = b.inner.(BulkCreator).CreateBulk(op.Bulk)
		return firstErr(op.BulkErrs)
	})
	if len(op.BulkErrs) != len(ops) {
		op.BulkErrs = make([]error, len(ops))
		for i := range op.BulkErrs {
			op.BulkErrs[i] = err
		}
	}
	return op.BulkErrs
}

// firstErr returns the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type interposedFile struct {
	inner File
	path  string
	ic    Interceptor
}

// Unwrap exposes the wrapped handle to LeafFile.
func (f *interposedFile) Unwrap() File { return f.inner }

// The File methods, likewise.  Size and Close pass straight through.

func (f *interposedFile) Size() int64  { return f.inner.Size() }
func (f *interposedFile) Close() error { return f.inner.Close() }

func (f *interposedFile) WriteAt(off int64, p payload.Payload) error {
	return f.ic(&Op{Kind: OpWriteAt, Path: f.path, Bytes: p.Len()}, func() error {
		return f.inner.WriteAt(off, p)
	})
}

func (f *interposedFile) Append(p payload.Payload) (int64, error) {
	op := &Op{Kind: OpAppend, Path: f.path, Bytes: p.Len(), Data: payload.List{p}}
	return through(f.ic, op, func() (int64, error) { return f.inner.Append(op.Data[0]) })
}

func (f *interposedFile) ReadAt(off, n int64) (payload.List, error) {
	return through(f.ic, &Op{Kind: OpReadAt, Path: f.path, Bytes: n}, func() (payload.List, error) {
		return f.inner.ReadAt(off, n)
	})
}

func (f *interposedFile) WritevAt(segs []extent.Ext, data payload.List) error {
	return f.ic(&Op{Kind: OpWritevAt, Path: f.path, Bytes: data.Len(), Segs: segs}, func() error {
		return f.inner.WritevAt(segs, data)
	})
}

func (f *interposedFile) ReadvAt(segs []extent.Ext) (payload.List, error) {
	op := &Op{Kind: OpReadvAt, Path: f.path, Segs: segs}
	for _, s := range segs {
		op.Bytes += s.Len
	}
	return through(f.ic, op, func() (payload.List, error) { return f.inner.ReadvAt(segs) })
}

func (f *interposedFile) Appendv(pl payload.List) (int64, error) {
	op := &Op{Kind: OpAppendv, Path: f.path, Bytes: pl.Len(), Data: pl}
	return through(f.ic, op, func() (int64, error) { return f.inner.Appendv(op.Data) })
}
