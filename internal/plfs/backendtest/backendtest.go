// Package backendtest is the executable form of the Backend contract
// documented in DESIGN.md §16: a table of conformance checks that every
// plfs.Backend implementation must pass, run verbatim against osfs,
// simfs, and objfs by each package's conformance test.
//
// Checks report failures with Errorf only (never FailNow), so a harness
// may run them on any goroutine — the simfs conformance test drives them
// from a discrete-event process.  Optional capabilities (CondPutter,
// BulkCreator) are asked of the leaf (plfs.CondPutterOf, BulkCreatorOf) and silently
// skipped when the store lacks them; the capability matrix in README's
// "Backends" section says who should pass what.  The same table runs
// over a bare store and over the store behind interposers (RunWrapped),
// which is how wrapper transparency is proven.
//
// Deliberately not checked, because implementations legitimately
// diverge (§16 documents each):
//
//   - Create in a missing parent directory (POSIX stores require the
//     parent; a flat object store has no parents).
//   - Rename over an existing target: both atomic replacement and an
//     ErrExist refusal are conforming, and the check accepts either.
//   - The error kind of removing a non-empty directory (only that it
//     fails and removes nothing).
package backendtest

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"testing"

	"plfs/internal/extent"
	"plfs/internal/fault"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Check is one conformance check.  b must be a fresh backend whose root
// directory exists and is empty; the check may create anything it likes
// below it.
type Check struct {
	Name string
	Fn   func(tb testing.TB, b plfs.Backend, root string)
}

// Checks returns the conformance table.
func Checks() []Check {
	return []Check{
		{"CreateExclusive", checkCreateExclusive},
		{"MissingNames", checkMissingNames},
		{"MkdirSemantics", checkMkdirSemantics},
		{"CreateUnderFile", checkCreateUnderFile},
		{"AppendOffsets", checkAppendOffsets},
		{"SparseWriteAt", checkSparseWriteAt},
		{"ReadPastEOF", checkReadPastEOF},
		{"RenameBasic", checkRenameBasic},
		{"RenameOverExisting", checkRenameOverExisting},
		{"RemoveNonEmptyDir", checkRemoveNonEmptyDir},
		{"ReadDirOrdering", checkReadDirOrdering},
		{"VectoredEquivalence", checkVectoredEquivalence},
		{"BatchAppend", checkBatchAppend},
		{"AppendAfterMutators", checkAppendAfterMutators},
		{"AppendVisibility", checkAppendVisibility},
		{"CondPut", checkCondPut},
		{"BulkCreate", checkBulkCreate},
	}
}

// Stack is one way of presenting a store to the suite: bare, or behind
// something interposed on it.
type Stack struct {
	Name string
	Wrap func(leaf plfs.Backend) plfs.Backend
}

// Stacks returns the presentations every store is checked under: the
// bare store, the store behind a pass-through interceptor, and the store
// behind a zero-probability fault injector.  A wrapper is transparent
// exactly when the whole table passes under it and Transparent holds.
func Stacks() []Stack {
	return []Stack{
		{"bare", func(b plfs.Backend) plfs.Backend { return b }},
		{"interposed", func(b plfs.Backend) plfs.Backend {
			return plfs.Interpose(b, func(_ *plfs.Op, call func() error) error { return call() })
		}},
		{"fault", func(b plfs.Backend) plfs.Backend { return fault.New(fault.Spec{}).Wrap(b, 0, nil) }},
	}
}

// Run executes every check, plus Transparent, under every stack as a
// subtest.  with is called once per subtest and must call fn exactly
// once with a fresh store and its empty root — directly for engineless
// stores, from a discrete-event process for simfs.
func Run(t *testing.T, with func(t *testing.T, fn func(leaf plfs.Backend, root string))) {
	for _, s := range Stacks() {
		s := s
		for _, c := range Checks() {
			c := c
			t.Run(s.Name+"/"+c.Name, func(t *testing.T) {
				with(t, func(leaf plfs.Backend, root string) { c.Fn(t, s.Wrap(leaf), root) })
			})
		}
		t.Run(s.Name+"/Transparent", func(t *testing.T) {
			with(t, func(leaf plfs.Backend, root string) { Transparent(t, leaf, s.Wrap(leaf), root) })
		})
	}
}

// Transparent asserts that wrapped answers every optional-capability
// question exactly as the bare leaf under it does: an interposer neither
// invents a capability nor hides one.
func Transparent(tb testing.TB, leaf, wrapped plfs.Backend, root string) {
	if plfs.Leaf(wrapped) != leaf {
		tb.Errorf("Leaf(wrapped) = %T, want the bare store %T", plfs.Leaf(wrapped), leaf)
	}
	_, want := leaf.(plfs.CondPutter)
	if _, got := plfs.CondPutterOf(wrapped); got != want {
		tb.Errorf("CondPutter: wrapped says %v, leaf says %v", got, want)
	}
	_, want = leaf.(plfs.BulkCreator)
	if _, got := plfs.BulkCreatorOf(wrapped); got != want {
		tb.Errorf("BulkCreator: wrapped says %v, leaf says %v", got, want)
	}
	lf, err := leaf.Create(root + "/cap.leaf")
	if err != nil {
		tb.Errorf("create on leaf: %v", err)
		return
	}
	defer lf.Close()
	wf, err := wrapped.Create(root + "/cap.wrapped")
	if err != nil {
		tb.Errorf("create on wrapped: %v", err)
		return
	}
	defer wf.Close()
	_, want = lf.(plfs.RangeLocker)
	if _, got := plfs.LeafFile(wf).(plfs.RangeLocker); got != want {
		tb.Errorf("RangeLocker: wrapped handle says %v, leaf handle says %v", got, want)
	}
	_, want = lf.(plfs.Flusher)
	if _, got := plfs.LeafFile(wf).(plfs.Flusher); got != want {
		tb.Errorf("Flusher: wrapped handle says %v, leaf handle says %v", got, want)
	}
}

// bytesOf reads [0, size) of an open handle as materialized bytes.
func bytesOf(tb testing.TB, f plfs.File) []byte {
	tb.Helper()
	pl, err := f.ReadAt(0, f.Size())
	if err != nil {
		tb.Errorf("read back: %v", err)
		return nil
	}
	return pl.Materialize()
}

func checkCreateExclusive(tb testing.TB, b plfs.Backend, root string) {
	p := root + "/f"
	f, err := b.Create(p)
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	f.Close()
	if _, err := b.Create(p); !errors.Is(err, iofs.ErrExist) {
		tb.Errorf("second create: want errors.Is ErrExist, got %v", err)
	}
	// OpenWrite reopens without truncation.
	f, err = b.OpenWrite(p)
	if err != nil {
		tb.Errorf("openwrite existing: %v", err)
		return
	}
	f.Close()
}

func checkMissingNames(tb testing.TB, b plfs.Backend, root string) {
	p := root + "/missing"
	if _, err := b.OpenRead(p); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("openread missing: want ErrNotExist, got %v", err)
	}
	if _, err := b.OpenWrite(p); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("openwrite missing: want ErrNotExist, got %v", err)
	}
	if _, err := b.Stat(p); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("stat missing: want ErrNotExist, got %v", err)
	}
	if _, err := b.ReadDir(p); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("readdir missing: want ErrNotExist, got %v", err)
	}
	if err := b.Remove(p); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("remove missing: want ErrNotExist, got %v", err)
	}
	if err := b.Rename(p, root+"/elsewhere"); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("rename missing: want ErrNotExist, got %v", err)
	}
}

func checkMkdirSemantics(tb testing.TB, b plfs.Backend, root string) {
	d := root + "/d"
	if err := b.Mkdir(d); err != nil {
		tb.Errorf("mkdir: %v", err)
		return
	}
	if err := b.Mkdir(d); !errors.Is(err, iofs.ErrExist) {
		tb.Errorf("re-mkdir: want ErrExist, got %v", err)
	}
	fi, err := b.Stat(d)
	if err != nil || !fi.Dir {
		tb.Errorf("stat dir: %+v, %v", fi, err)
	}
	ents, err := b.ReadDir(d)
	if err != nil || len(ents) != 0 {
		tb.Errorf("readdir empty dir: %v ents, err %v", len(ents), err)
	}
	if err := b.Remove(d); err != nil {
		tb.Errorf("remove empty dir: %v", err)
	}
	if _, err := b.Stat(d); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("stat removed dir: want ErrNotExist, got %v", err)
	}
}

// checkCreateUnderFile: a name is a file or a directory, never both.  A
// create or mkdir below a file fails, so does a file create over a
// directory, and the listing names each once.
func checkCreateUnderFile(tb testing.TB, b plfs.Backend, root string) {
	d := root + "/d"
	create := func(p string) error {
		f, err := b.Create(p)
		if err == nil {
			f.Close()
		}
		return err
	}
	for _, err := range []error{b.Mkdir(d), b.Mkdir(d + "/w"), create(d + "/w/v"), create(d + "/x")} {
		if err != nil {
			tb.Errorf("setup: %v", err)
			return
		}
	}
	if create(d+"/x/y") == nil {
		tb.Errorf("create under a file succeeded")
	}
	if b.Mkdir(d+"/x/z") == nil {
		tb.Errorf("mkdir under a file succeeded")
	}
	if create(d+"/w") == nil {
		tb.Errorf("file create over a directory succeeded")
	}
	ents, err := b.ReadDir(d)
	if err != nil || len(ents) != 2 || ents[0].Name != "w" || !ents[0].Dir || ents[1].Name != "x" || ents[1].Dir {
		tb.Errorf("readdir: %+v, %v; want directory w and file x", ents, err)
	}
}

func checkAppendOffsets(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/f")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	defer f.Close()
	off, err := f.Append(payload.FromBytes([]byte("hello")))
	if err != nil || off != 0 {
		tb.Errorf("first append: off %d, err %v (want 0, nil)", off, err)
	}
	off, err = f.Append(payload.FromBytes([]byte("way")))
	if err != nil || off != 5 {
		tb.Errorf("second append: off %d, err %v (want 5, nil)", off, err)
	}
	if sz := f.Size(); sz != 8 {
		tb.Errorf("size after appends: %d, want 8", sz)
	}
	if got := string(bytesOf(tb, f)); got != "helloway" {
		tb.Errorf("content %q, want %q", got, "helloway")
	}
}

func checkSparseWriteAt(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/f")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	defer f.Close()
	if err := f.WriteAt(100, payload.FromBytes([]byte("tail"))); err != nil {
		tb.Errorf("sparse write: %v", err)
		return
	}
	if sz := f.Size(); sz != 104 {
		tb.Errorf("size %d, want 104", sz)
	}
	pl, err := f.ReadAt(98, 6)
	if err != nil {
		tb.Errorf("read across hole: %v", err)
		return
	}
	if got := pl.Materialize(); string(got) != "\x00\x00tail" {
		tb.Errorf("hole read %q, want two NULs then tail", got)
	}
}

func checkReadPastEOF(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/f")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	defer f.Close()
	f.Append(payload.FromBytes([]byte("abc")))
	pl, err := f.ReadAt(1, 5)
	if err != nil {
		tb.Errorf("read past EOF: %v", err)
		return
	}
	if got := pl.Materialize(); string(got) != "bc\x00\x00\x00" {
		tb.Errorf("overhang %q, want bc then three NULs", got)
	}
	if pl.Len() != 5 {
		tb.Errorf("overhang length %d, want 5 (zero-filled)", pl.Len())
	}
}

func checkRenameBasic(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/old")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	f.Append(payload.FromBytes([]byte("cargo")))
	f.Close()
	if err := b.Rename(root+"/old", root+"/new"); err != nil {
		tb.Errorf("rename: %v", err)
		return
	}
	if _, err := b.OpenRead(root + "/old"); !errors.Is(err, iofs.ErrNotExist) {
		tb.Errorf("old name after rename: want ErrNotExist, got %v", err)
	}
	f, err = b.OpenRead(root + "/new")
	if err != nil {
		tb.Errorf("open renamed: %v", err)
		return
	}
	defer f.Close()
	if got := string(bytesOf(tb, f)); got != "cargo" {
		tb.Errorf("renamed content %q, want %q", got, "cargo")
	}
}

func checkRenameOverExisting(tb testing.TB, b plfs.Backend, root string) {
	mk := func(name, content string) {
		f, err := b.Create(root + "/" + name)
		if err != nil {
			tb.Errorf("create %s: %v", name, err)
			return
		}
		f.Append(payload.FromBytes([]byte(content)))
		f.Close()
	}
	mk("src", "source")
	mk("dst", "target")
	err := b.Rename(root+"/src", root+"/dst")
	read := func(name string) string {
		f, err := b.OpenRead(root + "/" + name)
		if err != nil {
			return "<" + err.Error() + ">"
		}
		defer f.Close()
		return string(bytesOf(tb, f))
	}
	switch {
	case err == nil:
		// Atomic replacement (os.Rename): source gone, target is source.
		if _, serr := b.Stat(root + "/src"); !errors.Is(serr, iofs.ErrNotExist) {
			tb.Errorf("replace outcome: src still present (%v)", serr)
		}
		if got := read("dst"); got != "source" {
			tb.Errorf("replace outcome: dst %q, want %q", got, "source")
		}
	case errors.Is(err, iofs.ErrExist):
		// Refusal: both names intact, nothing moved.
		if got := read("src"); got != "source" {
			tb.Errorf("refusal outcome: src %q, want %q", got, "source")
		}
		if got := read("dst"); got != "target" {
			tb.Errorf("refusal outcome: dst %q, want %q", got, "target")
		}
	default:
		tb.Errorf("rename over existing: want nil or ErrExist, got %v", err)
	}
}

func checkRemoveNonEmptyDir(tb testing.TB, b plfs.Backend, root string) {
	d := root + "/d"
	if err := b.Mkdir(d); err != nil {
		tb.Errorf("mkdir: %v", err)
		return
	}
	f, err := b.Create(d + "/f")
	if err != nil {
		tb.Errorf("create in dir: %v", err)
		return
	}
	f.Close()
	if err := b.Remove(d); err == nil {
		tb.Errorf("remove non-empty dir succeeded")
	}
	if fi, err := b.Stat(d); err != nil || !fi.Dir {
		tb.Errorf("dir damaged by refused remove: %+v, %v", fi, err)
	}
	if err := b.Remove(d + "/f"); err != nil {
		tb.Errorf("remove child: %v", err)
	}
	if err := b.Remove(d); err != nil {
		tb.Errorf("remove emptied dir: %v", err)
	}
}

func checkReadDirOrdering(tb testing.TB, b plfs.Backend, root string) {
	for _, name := range []string{"b", "a", "c10", "c2"} {
		f, err := b.Create(root + "/" + name)
		if err != nil {
			tb.Errorf("create %s: %v", name, err)
			return
		}
		f.Append(payload.FromBytes([]byte(name)))
		f.Close()
	}
	if err := b.Mkdir(root + "/adir"); err != nil {
		tb.Errorf("mkdir: %v", err)
		return
	}
	ents, err := b.ReadDir(root)
	if err != nil {
		tb.Errorf("readdir: %v", err)
		return
	}
	want := []struct {
		name string
		dir  bool
		size int64
	}{{"a", false, 1}, {"adir", true, 0}, {"b", false, 1}, {"c10", false, 3}, {"c2", false, 2}}
	if len(ents) != len(want) {
		tb.Errorf("readdir: %d entries, want %d (%+v)", len(ents), len(want), ents)
		return
	}
	for i, w := range want {
		e := ents[i]
		if e.Name != w.name || e.Dir != w.dir || (!e.Dir && e.Size != w.size) {
			tb.Errorf("entry %d: %+v, want %+v", i, e, w)
		}
	}
}

func checkVectoredEquivalence(tb testing.TB, b plfs.Backend, root string) {
	fv, err := b.Create(root + "/vectored")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	defer fv.Close()
	fp, err := b.Create(root + "/plain")
	if err != nil {
		tb.Errorf("create plain: %v", err)
		return
	}
	defer fp.Close()

	segs := []extent.Ext{{Off: 0, Len: 3}, {Off: 10, Len: 4}, {Off: 5, Len: 2}}
	data := payload.FromBytes([]byte("abcdefghi"))
	if err := fv.WritevAt(segs, payload.List{data}); err != nil {
		tb.Errorf("writev: %v", err)
		return
	}
	pos := int64(0)
	for _, s := range segs {
		if err := fp.WriteAt(s.Off, data.Slice(pos, s.Len)); err != nil {
			tb.Errorf("plain write: %v", err)
			return
		}
		pos += s.Len
	}
	if fv.Size() != fp.Size() {
		tb.Errorf("sizes diverge: vectored %d, plain %d", fv.Size(), fp.Size())
	}
	got, err := fv.ReadvAt([]extent.Ext{{Off: 0, Len: 7}, {Off: 9, Len: 5}})
	if err != nil {
		tb.Errorf("readv: %v", err)
		return
	}
	a, err := fp.ReadAt(0, 7)
	if err != nil {
		tb.Errorf("plain read: %v", err)
		return
	}
	bb, err := fp.ReadAt(9, 5)
	if err != nil {
		tb.Errorf("plain read: %v", err)
		return
	}
	if !payload.ContentEqual(got, a.Concat(bb)) {
		tb.Errorf("vectored read %q != per-extent read %q",
			got.Materialize(), a.Concat(bb).Materialize())
	}
}

func checkBatchAppend(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/f")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	defer f.Close()
	f.Append(payload.FromBytes([]byte("head")))
	off, err := f.Appendv(payload.List{
		payload.FromBytes([]byte("-mid-")),
		payload.FromBytes([]byte("tail")),
	})
	if err != nil || off != 4 {
		tb.Errorf("appendv: off %d, err %v (want 4, nil)", off, err)
	}
	if got := string(bytesOf(tb, f)); got != "head-mid-tail" {
		tb.Errorf("batched content %q, want %q", got, "head-mid-tail")
	}
}

// checkAppendAfterMutators: every mutator on a handle moves end-of-file
// for that handle's next append, and a reopened handle finds the true end.
// A store that caches the end (osfs does, to make an append one pwrite)
// must keep the cache behind Append, Appendv, WriteAt and WritevAt alike;
// one that lets any of them go stale overwrites data here.
func checkAppendAfterMutators(tb testing.TB, b plfs.Backend, root string) {
	p := root + "/f"
	f, err := b.Create(p)
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	bs := func(s string) payload.Payload { return payload.FromBytes([]byte(s)) }
	landed := func(what string, off int64, err error, want int64) {
		tb.Helper()
		if err != nil || off != want {
			tb.Errorf("%s: off %d, err %v (want %d, nil)", what, off, err, want)
		}
	}
	wrote := func(what string, err error) {
		tb.Helper()
		if err != nil {
			tb.Errorf("%s: %v", what, err)
		}
	}
	syn := payload.Synthetic(7, 0, 2)
	off, err := f.Append(bs("aa"))
	landed("append", off, err, 0)
	off, err = f.Appendv(payload.List{bs("bb"), syn})
	landed("appendv after append", off, err, 2)
	wrote("writeat past EOF", f.WriteAt(8, bs("cc")))
	off, err = f.Append(bs("dd"))
	landed("append after writeat past EOF", off, err, 10)
	wrote("writevat past EOF", f.WritevAt([]extent.Ext{{Off: 14, Len: 2}}, payload.List{bs("ee")}))
	off, err = f.Appendv(payload.List{bs("ff"), bs("gg")})
	landed("appendv after writevat past EOF", off, err, 16)
	wrote("writeat inside", f.WriteAt(0, bs("AA")))
	off, err = f.Append(bs("hh"))
	landed("append after writeat inside", off, err, 20)
	if err := f.Close(); err != nil {
		tb.Errorf("close: %v", err)
	}

	f, err = b.OpenWrite(p)
	if err != nil {
		tb.Errorf("openwrite: %v", err)
		return
	}
	defer f.Close()
	wrote("writeat inside on reopened handle", f.WriteAt(2, bs("BB")))
	off, err = f.Append(bs("ii"))
	landed("first append on reopened handle", off, err, 22)
	off, err = f.Appendv(payload.List{bs("j"), bs("j")})
	landed("appendv on reopened handle", off, err, 24)
	want := "AABB" + string(syn.Materialize()) + "\x00\x00ccdd\x00\x00eeffgghhiijj"
	if got := string(bytesOf(tb, f)); got != want {
		tb.Errorf("content %q, want %q", got, want)
	}
}

// checkAppendVisibility: a store may hold appended bytes back (§16.1,
// "appends may be store-buffered" — osfs coalesces small ones), but never
// from the handle that appended them, never out of program order, and
// never past Close.  Offsets are contiguous throughout; the handle's own
// Size and ReadAt are exact after a burst of small appends larger than any
// write-behind buffer, after a large append and an Appendv behind pending
// small ones, and after a WriteAt into bytes that may still be pending;
// once closed, a fresh handle, Stat and ReadDir agree.
func checkAppendVisibility(tb testing.TB, b plfs.Backend, root string) {
	f, err := b.Create(root + "/log")
	if err != nil {
		tb.Errorf("create: %v", err)
		return
	}
	var want []byte // the file as program order makes it
	var tag uint64
	piece := func(n int64) payload.Payload { // every piece has its own content
		tag++
		return payload.Synthetic(tag, 0, n)
	}
	add := func(what string, pl ...payload.Payload) {
		tb.Helper()
		var off int64
		var err error
		if len(pl) == 1 {
			off, err = f.Append(pl[0])
		} else {
			off, err = f.Appendv(pl)
		}
		if err != nil || off != int64(len(want)) {
			tb.Errorf("%s: off %d, err %v (want %d, nil)", what, off, err, len(want))
		}
		for _, p := range pl {
			want = p.AppendTo(want)
		}
	}
	agrees := func(what string, f plfs.File) {
		tb.Helper()
		if sz := f.Size(); sz != int64(len(want)) {
			tb.Errorf("%s: size %d, want %d", what, sz, len(want))
		}
		if got := bytesOf(tb, f); !bytes.Equal(got, want) {
			tb.Errorf("%s: content differs from the bytes written in program order", what)
		}
	}

	for i := 0; i < 100; i++ { // 300 KB in unaligned pieces
		add("small append", piece(3001))
	}
	agrees("after a burst of small appends", f)
	add("small append", piece(3001))
	add("large append behind a pending small one", piece(100_000))
	add("small append", piece(3001))
	agrees("after a large append", f)
	add("small append", piece(3001))
	add("appendv behind a pending small one", piece(700), piece(9), piece(1300))
	agrees("after an appendv", f)
	at := int64(len(want)) + 50
	add("small append", piece(3001))
	patch := piece(100)
	if err := f.WriteAt(at, patch); err != nil {
		tb.Errorf("writeat into the last append: %v", err)
	}
	copy(want[at:], patch.Materialize())
	add("small append after writeat", piece(3001))
	agrees("after a writeat into the last append", f)
	if err := f.Close(); err != nil {
		tb.Errorf("close: %v", err)
	}

	if f, err = b.OpenRead(root + "/log"); err != nil {
		tb.Errorf("openread: %v", err)
		return
	}
	defer f.Close()
	agrees("fresh handle after close", f)
	if fi, err := b.Stat(root + "/log"); err != nil || fi.Size != int64(len(want)) {
		tb.Errorf("stat after close: %+v, %v (want size %d)", fi, err, len(want))
	}
	if ents, err := b.ReadDir(root); err != nil || len(ents) != 1 || ents[0].Size != int64(len(want)) {
		tb.Errorf("readdir after close: %+v, %v (want one entry of %d bytes)", ents, err, len(want))
	}
}

func checkCondPut(tb testing.TB, b plfs.Backend, root string) {
	cp, ok := plfs.CondPutterOf(b)
	if !ok {
		return // optional capability
	}
	p := root + "/rec"
	if err := cp.PutIfAbsent(p, []byte("v1")); err != nil {
		tb.Errorf("put-if-absent: %v", err)
		return
	}
	if err := cp.PutIfAbsent(p, []byte("v2")); !errors.Is(err, iofs.ErrExist) {
		tb.Errorf("second put-if-absent: want ErrExist, got %v", err)
	}
	f, err := b.OpenRead(p)
	if err != nil {
		tb.Errorf("open after losing put: %v", err)
		return
	}
	got := string(bytesOf(tb, f))
	f.Close()
	if got != "v1" {
		tb.Errorf("losing put mutated object: %q, want %q", got, "v1")
	}
	if err := cp.PutReplace(p, []byte("v3")); err != nil {
		tb.Errorf("put-replace: %v", err)
		return
	}
	f, err = b.OpenRead(p)
	if err != nil {
		tb.Errorf("open after replace: %v", err)
		return
	}
	got = string(bytesOf(tb, f))
	f.Close()
	if got != "v3" {
		tb.Errorf("replace content %q, want %q", got, "v3")
	}
	// PutReplace also creates absent keys (generation "absent").
	if err := cp.PutReplace(root+"/fresh", []byte("new")); err != nil {
		tb.Errorf("put-replace absent: %v", err)
	}
}

func checkBulkCreate(tb testing.TB, b plfs.Backend, root string) {
	bc, ok := plfs.BulkCreatorOf(b)
	if !ok {
		return // optional capability
	}
	f, err := b.Create(root + "/taken")
	if err != nil {
		tb.Errorf("setup create: %v", err)
		return
	}
	f.Close()
	errs := bc.CreateBulk([]plfs.BulkOp{
		{Path: root + "/d", Dir: true},
		{Path: root + "/d/inner"}, // parented by the batch's own first entry
		{Path: root + "/taken"},   // name already exists
		{Path: root + "/d/second"},
	})
	if len(errs) != 4 {
		tb.Errorf("verdict count %d, want 4", len(errs))
		return
	}
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		tb.Errorf("fresh entries: %v, %v, %v (want nils)", errs[0], errs[1], errs[3])
	}
	if !errors.Is(errs[2], iofs.ErrExist) {
		tb.Errorf("taken entry: want errors.Is ErrExist, got %v", errs[2])
	}
	fi, err := b.Stat(root + "/d")
	if err != nil || !fi.Dir {
		tb.Errorf("bulk-created dir: %+v, %v", fi, err)
	}
	// Created files are closed and fresh: OpenWrite must attach, and the
	// losing entry must not have disturbed the existing file.
	for _, p := range []string{root + "/d/inner", root + "/d/second", root + "/taken"} {
		f, err := b.OpenWrite(p)
		if err != nil {
			tb.Errorf("openwrite %s after bulk: %v", p, err)
			continue
		}
		f.Close()
	}
}
