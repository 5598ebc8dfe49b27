package plfs

// Unit tests for the one forwarding decorator: what an interceptor sees
// (Op fields per call), what its rewrites do (torn prefix, filtered bulk
// batch, refusal), and the health interceptor built on it.  Transparency
// over the real stores is the conformance suite's job (backendtest.Run
// under every stack); these pin the Op contract itself over memFS.

import (
	"errors"
	iofs "io/fs"
	"reflect"
	"testing"

	"plfs/internal/extent"
	"plfs/internal/payload"
)

// bulkFS is memFS plus the two optional Backend capabilities, so the
// interposer's capability methods have a leaf to reach.
type bulkFS struct {
	*memFS
	bulkErr error // verdict for every bulk entry
	batches int
}

func (b *bulkFS) CreateBulk(ops []BulkOp) []error {
	b.batches++
	errs := make([]error, len(ops))
	for i, op := range ops {
		if errs[i] = b.bulkErr; errs[i] == nil {
			b.files[op.Path] = nil
		}
	}
	return errs
}

func (b *bulkFS) PutIfAbsent(p string, data []byte) error {
	if _, ok := b.files[p]; ok {
		return iofs.ErrExist
	}
	b.files[p] = append([]byte(nil), data...)
	return nil
}

func (b *bulkFS) PutReplace(p string, data []byte) error {
	b.files[p] = append([]byte(nil), data...)
	return nil
}

type transientErr struct{}

func (transientErr) Error() string   { return "transient" }
func (transientErr) Transient() bool { return true }

func TestInterposeOpFields(t *testing.T) {
	type seen struct {
		Kind        OpKind
		Path, Path2 string
		Bytes       int64
		Segs, Data  int
		Bulk        int
	}
	var got []seen
	b := Interpose(&bulkFS{memFS: newMemFS()}, func(op *Op, call func() error) error {
		got = append(got, seen{op.Kind, op.Path, op.Path2, op.Bytes, len(op.Segs), len(op.Data), len(op.Bulk)})
		return call()
	})
	pay := func(n int) payload.Payload { return payload.FromBytes(make([]byte, n)) }
	segs := []extent.Ext{{Off: 0, Len: 3}, {Off: 8, Len: 5}}

	b.Mkdir("/d")
	f, err := b.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(0, pay(4))
	f.Append(pay(6))
	f.ReadAt(0, 10)
	f.WritevAt(segs, payload.List{pay(8)})
	f.ReadvAt(segs)
	f.Appendv(payload.List{pay(1), pay(2)})
	if f.Size() != 16 || f.Close() != nil { // passed through, never intercepted
		t.Errorf("size %d after the writes, want 16", f.Size())
	}
	b.OpenRead("/d/f")
	b.OpenWrite("/d/f")
	b.Stat("/d/f")
	b.ReadDir("/d")
	b.Rename("/d/f", "/d/g")
	b.Remove("/d/g")
	cp, ok := CondPutterOf(b)
	if !ok {
		t.Fatal("CondPutterOf false over a leaf that has it")
	}
	cp.PutIfAbsent("/rec", []byte("abc"))
	cp.PutReplace("/rec", []byte("abcde"))
	bc, _ := BulkCreatorOf(b)
	bc.CreateBulk([]BulkOp{{Path: "/x", Dir: true}, {Path: "/x/y"}})

	want := []seen{
		{Kind: OpMkdir, Path: "/d"},
		{Kind: OpCreate, Path: "/d/f"},
		{Kind: OpWriteAt, Path: "/d/f", Bytes: 4},
		{Kind: OpAppend, Path: "/d/f", Bytes: 6, Data: 1},
		{Kind: OpReadAt, Path: "/d/f", Bytes: 10},
		{Kind: OpWritevAt, Path: "/d/f", Bytes: 8, Segs: 2},
		{Kind: OpReadvAt, Path: "/d/f", Bytes: 8, Segs: 2},
		{Kind: OpAppendv, Path: "/d/f", Bytes: 3, Data: 2},
		{Kind: OpOpenRead, Path: "/d/f"},
		{Kind: OpOpenWrite, Path: "/d/f"},
		{Kind: OpStat, Path: "/d/f"},
		{Kind: OpReadDir, Path: "/d"},
		{Kind: OpRename, Path: "/d/f", Path2: "/d/g"},
		{Kind: OpRemove, Path: "/d/g"},
		{Kind: OpPutIfAbsent, Path: "/rec", Bytes: 3},
		{Kind: OpPutReplace, Path: "/rec", Bytes: 5},
		{Kind: OpCreateBulk, Bulk: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("intercepted ops:\n got %+v\nwant %+v", got, want)
	}
	for _, s := range got { // every payload-moving call above moved some
		if s.Kind.Data() != (s.Bytes > 0) {
			t.Errorf("kind %d: Data() = %v with Bytes %d", s.Kind, s.Kind.Data(), s.Bytes)
		}
	}
}

// TestInterposeRewrites: an interceptor shortens an append to a prefix,
// filters a bulk batch, and refuses calls; the store sees exactly what
// call() shipped and the caller sees exactly what the interceptor said.
func TestInterposeRewrites(t *testing.T) {
	boom := errors.New("boom")
	leaf := &bulkFS{memFS: newMemFS()}
	b := Interpose(leaf, func(op *Op, call func() error) error {
		switch op.Kind {
		case OpAppend, OpAppendv: // torn: land the first piece's first byte
			op.Data = payload.List{op.Data[0].Slice(0, 1)}
			call()
			return boom
		case OpCreateBulk: // refuse directories, ship the files
			all := op.Bulk
			errs := make([]error, len(all))
			op.Bulk = nil
			for i, e := range all {
				if e.Dir {
					errs[i] = boom
				} else {
					op.Bulk = append(op.Bulk, e)
				}
			}
			call()
			shipped := op.BulkErrs
			for i := range errs {
				if errs[i] == nil {
					errs[i], shipped = shipped[0], shipped[1:]
				}
			}
			op.BulkErrs = errs
			return nil
		case OpStat, OpPutIfAbsent: // refused outright
			return boom
		}
		return call()
	})
	f, _ := b.Create("/f")
	if _, err := f.Append(payload.FromBytes([]byte("abcd"))); err != boom {
		t.Errorf("torn append: err %v, want boom", err)
	}
	if _, err := f.Appendv(payload.List{payload.FromBytes([]byte("xy")), payload.FromBytes([]byte("z"))}); err != boom {
		t.Errorf("torn appendv: err %v, want boom", err)
	}
	if got := string(leaf.files["/f"]); got != "ax" {
		t.Errorf("store holds %q after two torn appends, want %q", got, "ax")
	}
	if _, err := b.Stat("/f"); err != boom {
		t.Errorf("refused stat: err %v, want boom", err)
	}
	bc, _ := BulkCreatorOf(b)
	errs := bc.CreateBulk([]BulkOp{{Path: "/d", Dir: true}, {Path: "/a"}, {Path: "/b"}})
	if len(errs) != 3 || errs[0] != boom || errs[1] != nil || errs[2] != nil {
		t.Errorf("filtered bulk verdicts %v, want [boom nil nil]", errs)
	}
	if _, ok := leaf.files["/d"]; ok {
		t.Error("refused bulk entry reached the store")
	}
	if _, ok := leaf.files["/b"]; !ok {
		t.Error("shipped bulk entry did not reach the store")
	}
	cp, _ := CondPutterOf(b)
	if err := cp.PutIfAbsent("/rec", []byte("v")); err != boom {
		t.Errorf("refused put: err %v, want boom", err)
	}
	if _, ok := leaf.files["/rec"]; ok {
		t.Error("refused put reached the store")
	}

	// A batch refused whole, without shipping, fails every entry alike.
	whole := Interpose(leaf, func(*Op, func() error) error { return boom })
	bc, _ = BulkCreatorOf(whole)
	if errs := bc.CreateBulk(make([]BulkOp, 2)); len(errs) != 2 || errs[0] != boom || errs[1] != boom {
		t.Errorf("whole-batch refusal verdicts %v, want [boom boom]", errs)
	}
}

// TestCapabilityAskedOfLeaf: interposers neither invent nor hide a
// capability, however deep the chain.
func TestCapabilityAskedOfLeaf(t *testing.T) {
	pass := func(_ *Op, call func() error) error { return call() }
	plain, rich := newMemFS(), &bulkFS{memFS: newMemFS()}
	for _, tc := range []struct {
		leaf Backend
		want bool
	}{{plain, false}, {rich, true}} {
		b := Interpose(Interpose(tc.leaf, pass), pass)
		if Leaf(b) != tc.leaf {
			t.Errorf("Leaf did not reach %T", tc.leaf)
		}
		if _, ok := CondPutterOf(b); ok != tc.want {
			t.Errorf("CondPutter over %T: %v, want %v", tc.leaf, ok, tc.want)
		}
		if _, ok := BulkCreatorOf(b); ok != tc.want {
			t.Errorf("BulkCreator over %T: %v, want %v", tc.leaf, ok, tc.want)
		}
		if bulkCapable([]Backend{b}) != tc.want {
			t.Errorf("bulkCapable over %T: want %v", tc.leaf, tc.want)
		}
		f, _ := b.Create("/f")
		if _, ok := LeafFile(f).(*memFile); !ok {
			t.Errorf("LeafFile reached %T, want the store's handle", LeafFile(f))
		}
	}
}

// TestHealthObservesBulkOnce: the health interceptor records one outcome
// per bulk batch — the batch is one RPC to the volume, so eight failed
// entries are one failure, not a tripped breaker — and classes data ops
// apart from namespace ops.
func TestHealthObservesBulkOnce(t *testing.T) {
	leaf := &bulkFS{memFS: newMemFS(), bulkErr: transientErr{}}
	m := NewMount([]string{"/vol0"}, Options{HedgedReads: true})
	ctx := m.bind(Ctx{Vols: []Backend{leaf}, Clock: ClockFunc(func() int64 { return 0 })})
	if again := m.bind(ctx); again.Vols[0] != ctx.Vols[0] {
		t.Error("bind wrapped an already-bound context twice")
	}
	bc, ok := BulkCreatorOf(ctx.Vols[0])
	if !ok {
		t.Fatal("health-wrapped volume lost BulkCreator")
	}
	for _, err := range bc.CreateBulk(make([]BulkOp, 8)) {
		if !errors.Is(err, transientErr{}) {
			t.Fatalf("entry verdict %v, want the store's", err)
		}
	}
	snap := m.Health().Snapshot()
	if len(snap) != 1 || snap[0].Failures != 1 || snap[0].State != BreakerClosed {
		t.Errorf("after one failed batch of 8: %+v, want 1 failure, breaker closed", snap)
	}
	if leaf.batches != 1 {
		t.Errorf("store saw %d batches, want 1", leaf.batches)
	}
}
