package objfs

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"maps"
	"testing"
	"time"

	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/sim"
)

func TestMarkerSemantics(t *testing.T) {
	s := New(DefaultConfig())
	b := Vol(s)
	if err := b.Mkdir("/d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := b.Mkdir("/d"); !errors.Is(err, iofs.ErrExist) {
		t.Fatalf("re-mkdir: want ErrExist, got %v", err)
	}
	fi, err := b.Stat("/d")
	if err != nil || !fi.Dir {
		t.Fatalf("stat dir: %+v, %v", fi, err)
	}
	// A file whose ancestors were never created still works: flat store.
	f, err := b.Create("/d/sub/x")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Append(payload.FromBytes([]byte("hi"))); err != nil {
		t.Fatalf("append: %v", err)
	}
	f.Close()
	// "/d/sub" exists as a directory purely by prefix.
	fi, err = b.Stat("/d/sub")
	if err != nil || !fi.Dir {
		t.Fatalf("stat implied dir: %+v, %v", fi, err)
	}
	ents, err := b.ReadDir("/d")
	if err != nil || len(ents) != 1 || ents[0].Name != "sub" || !ents[0].Dir {
		t.Fatalf("readdir /d: %+v, %v", ents, err)
	}
	if err := b.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty: want ErrNotEmpty, got %v", err)
	}
	if err := b.Remove("/d/sub/x"); err != nil {
		t.Fatalf("remove file: %v", err)
	}
	if err := b.Remove("/d"); err != nil {
		t.Fatalf("remove emptied dir: %v", err)
	}
	if _, err := b.Stat("/d"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("stat removed: want ErrNotExist, got %v", err)
	}
}

func TestCondPut(t *testing.T) {
	s := New(DefaultConfig())
	b := Vol(s)
	if err := b.PutIfAbsent("/k", []byte("one")); err != nil {
		t.Fatalf("put-if-absent: %v", err)
	}
	if err := b.PutIfAbsent("/k", []byte("two")); !errors.Is(err, iofs.ErrExist) {
		t.Fatalf("second put-if-absent: want ErrExist, got %v", err)
	}
	if err := b.PutReplace("/k", []byte("three")); err != nil {
		t.Fatalf("put-replace: %v", err)
	}
	f, err := b.OpenRead("/k")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got := string(f.(*file).ReadAtMust(t, 0, f.Size()))
	if got != "three" {
		t.Fatalf("read back %q, want %q", got, "three")
	}
	c := counters(s)
	if c["objfs.cond_puts"] != 3 || c["objfs.cond_put_conflicts"] != 1 {
		t.Fatalf("counters: cond_puts=%d conflicts=%d, want 3/1", c["objfs.cond_puts"], c["objfs.cond_put_conflicts"])
	}
}

// counters reads the store's request counters as a run's registry
// receives them.
func counters(s *Store) map[string]int64 {
	reg := obs.New()
	s.PublishObs(reg)
	return reg.Snapshot().Counters
}

// TestRequestCounters: each request lands in its own counter, once, and
// Report and the gauges read the same store.
func TestRequestCounters(t *testing.T) {
	s := New(DefaultConfig())
	b := Vol(s)
	s.Roots(1) // administrative: no request
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Mkdir("/obj0/d"))        // PUT (conditional)
	f, err := b.Create("/obj0/d/f") // PUT (conditional)
	must(err)
	_, err = f.Append(payload.FromBytes([]byte("hello"))) // PUT, 5 bytes in
	must(err)
	_, err = b.Stat("/obj0/d/f") // HEAD
	must(err)
	r, err := b.OpenRead("/obj0/d/f") // HEAD
	must(err)
	_, err = r.ReadAt(1, 3) // GET, 3 bytes out
	must(err)
	_, err = b.ReadDir("/obj0/d") // one LIST page, one key
	must(err)
	must(b.PutReplace("/obj0/d/g", []byte("ab")))                        // HEAD, PUT (conditional), 2 bytes in
	must(b.Rename("/obj0/d/g", "/obj0/d/h"))                             // HEAD, copy PUT, DELETE
	if _, err := b.Create("/obj0/d/f"); !errors.Is(err, iofs.ErrExist) { // PUT (conditional), refused
		t.Fatalf("second create: want ErrExist, got %v", err)
	}
	must(b.Remove("/obj0/d/f")) // DELETE

	want := map[string]int64{
		"objfs.puts": 6, "objfs.cond_puts": 4, "objfs.cond_put_conflicts": 1,
		"objfs.heads": 4, "objfs.gets": 1, "objfs.list_pages": 1, "objfs.list_keys": 1,
		"objfs.deletes": 2, "objfs.bytes_in": 7, "objfs.bytes_out": 3,
	}
	reg := obs.New()
	s.PublishObs(reg)
	if got := reg.Snapshot().Counters; !maps.Equal(got, want) {
		t.Fatalf("counters = %v\nwant %v", got, want)
	}
	// Left: the markers /obj0/ and /obj0/d/, and /obj0/d/h.
	if o, m := reg.Gauge("objfs.objects").Value(), reg.Gauge("objfs.meta_bytes").Value(); o != 3 || m != 3*512 {
		t.Fatalf("objects %v, meta_bytes %v; want 3, 1536", o, m)
	}
	if rep := s.Report(); rep.MetaOps != 14 || rep.NetBytes != 10 {
		t.Fatalf("report: %d requests, %d bytes; want 14, 10", rep.MetaOps, rep.NetBytes)
	}
}

// ReadAtMust keeps the test terse.
func (f *file) ReadAtMust(t *testing.T, off, n int64) []byte {
	t.Helper()
	pl, err := f.ReadAt(off, n)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return pl.Materialize()
}

func TestRenamePrefix(t *testing.T) {
	s := New(DefaultConfig())
	b := Vol(s)
	if err := b.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"/a/x", "/a/sub/y"} {
		f, err := b.Create(k)
		if err != nil {
			t.Fatalf("create %s: %v", k, err)
		}
		f.Append(payload.FromBytes([]byte(k)))
		f.Close()
	}
	if err := b.Rename("/a", "/b"); err != nil {
		t.Fatalf("rename prefix: %v", err)
	}
	if _, err := b.Stat("/a"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("old prefix still visible: %v", err)
	}
	f, err := b.OpenRead("/b/sub/y")
	if err != nil {
		t.Fatalf("open moved: %v", err)
	}
	if got := string(f.(*file).ReadAtMust(t, 0, f.Size())); got != "/a/sub/y" {
		t.Fatalf("moved content %q", got)
	}
	// Rename onto a taken name refuses with ErrExist, source intact.
	if err := b.Mkdir("/c"); err != nil {
		t.Fatal(err)
	}
	if err := b.Rename("/b", "/c"); !errors.Is(err, iofs.ErrExist) {
		t.Fatalf("rename over existing: want ErrExist, got %v", err)
	}
	if _, err := b.Stat("/b"); err != nil {
		t.Fatalf("source gone after refused rename: %v", err)
	}
}

func TestSimCostsAndConflict(t *testing.T) {
	eng := sim.NewEngine(7)
	s := NewSim(eng, DefaultConfig())
	s.Roots(1)
	setup := Vol(s)
	if err := setup.PutIfAbsent("/obj0/k", []byte("base")); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var errA, errB error
	err := eng.RunProcs(
		func(p *sim.Proc) {
			b := Backend{s: s, p: p}
			errA = b.PutReplace("/obj0/k", []byte("from-a"))
		},
		func(p *sim.Proc) {
			b := Backend{s: s, p: p}
			errB = b.PutReplace("/obj0/k", []byte("from-b"))
		},
	)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if eng.Now() == 0 {
		t.Fatal("sim-bound ops charged no virtual time")
	}
	// Both procs HEAD the same generation before either PUT lands, so
	// exactly one conditional PUT wins and the other gets a transient
	// ConflictError — deterministically, whatever the jitter.
	var ce *ConflictError
	switch {
	case errA == nil && errors.As(errB, &ce):
	case errB == nil && errors.As(errA, &ce):
	default:
		t.Fatalf("want exactly one conflict, got errA=%v errB=%v", errA, errB)
	}
	if !ce.Transient() {
		t.Fatal("ConflictError must be transient")
	}
	if n := counters(s)["objfs.cond_put_conflicts"]; n != 1 {
		t.Fatalf("conflicts=%d, want 1", n)
	}
}

func TestReadDirPaging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ListPage = 10
	cfg.JitterFrac = 0
	eng := sim.NewEngine(1)
	s := NewSim(eng, cfg)
	s.Roots(1)
	err := eng.RunProcs(func(p *sim.Proc) {
		b := Backend{s: s, p: p}
		for i := 0; i < 25; i++ {
			f, err := b.Create("/obj0/f" + string(rune('a'+i)))
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
			f.Close()
		}
		t0 := p.Now()
		ents, err := b.ReadDir("/obj0")
		if err != nil || len(ents) != 25 {
			t.Errorf("readdir: %d ents, %v", len(ents), err)
			return
		}
		elapsed := time.Duration(p.Now() - t0)
		// 25 keys at page size 10 = 3 LIST pages + 25 per-key scans + RTTs.
		want := 3*(cfg.RTT+cfg.ListOp) + 25*cfg.ListKey
		if elapsed != want {
			t.Errorf("paged scan cost %v, want %v", elapsed, want)
		}
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if c := counters(s); c["objfs.list_pages"] != 3 || c["objfs.list_keys"] != 25 {
		t.Fatalf("list_pages=%d list_keys=%d, want 3/25", c["objfs.list_pages"], c["objfs.list_keys"])
	}
}

// TestListInflightBackpressure pins the listing admission gate: with
// ListInflight slots, a fan-out of concurrent giant prefix scans is
// served at most ListInflight pages at a time — total scan time grows
// to pages/slots rounds — while an unbounded store lets every lister's
// pages proceed concurrently.  Results must be identical either way.
func TestListInflightBackpressure(t *testing.T) {
	const listers, files = 8, 30
	run := func(inflight int) (time.Duration, error) {
		cfg := DefaultConfig()
		cfg.ListPage = 10
		cfg.ListInflight = inflight
		cfg.JitterFrac = 0
		eng := sim.NewEngine(1)
		s := NewSim(eng, cfg)
		s.Roots(1)
		if err := eng.RunProcs(func(p *sim.Proc) {
			b := Backend{s: s, p: p}
			for i := 0; i < files; i++ {
				f, err := b.Create(fmt.Sprintf("/obj0/f%02d", i))
				if err != nil {
					t.Errorf("create %d: %v", i, err)
					return
				}
				f.Close()
			}
		}); err != nil {
			return 0, err
		}
		start := eng.Now()
		fns := make([]func(*sim.Proc), listers)
		for l := 0; l < listers; l++ {
			fns[l] = func(p *sim.Proc) {
				ents, err := Backend{s: s, p: p}.ReadDir("/obj0")
				if err != nil || len(ents) != files {
					t.Errorf("readdir: %d ents, %v", len(ents), err)
				}
			}
		}
		if err := eng.RunProcs(fns...); err != nil {
			return 0, err
		}
		return time.Duration(eng.Now() - start), nil
	}

	bounded, err := run(2)
	if err != nil {
		t.Fatalf("bounded run: %v", err)
	}
	unbounded, err := run(0)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	// 8 listers x 3 pages = 24 pages through 2 slots: at least 12 rounds
	// of full page service, against ~3 rounds unbounded.
	pageCost := DefaultConfig().RTT + DefaultConfig().ListOp + 10*DefaultConfig().ListKey
	if bounded < 12*pageCost {
		t.Errorf("bounded scan finished in %v, want >= %v (the gate applied no backpressure)", bounded, 12*pageCost)
	}
	if bounded < 3*unbounded {
		t.Errorf("bounded %v vs unbounded %v: expected >=3x serialization from the gate", bounded, unbounded)
	}
}
