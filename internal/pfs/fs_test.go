package pfs

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"plfs/internal/payload"
	"plfs/internal/sim"
)

// testFS builds an engine + FS with mild, deterministic parameters.
func testFS(seed int64, mutate func(*Config)) (*sim.Engine, *FS) {
	eng := sim.NewEngine(seed)
	cfg := SmallCluster()
	cfg.JitterFrac = 0
	if mutate != nil {
		mutate(&cfg)
	}
	return eng, New(eng, cfg)
}

// runOne runs fn as a single simulated process and returns its duration.
func runOne(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	var took sim.Time
	eng.Spawn("test", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		took = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return took
}

func TestNamespaceSemantics(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		if err := c.Mkdir("/vol0/a"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Mkdir("/vol0/a"); err != ErrExist {
			t.Errorf("duplicate mkdir: %v", err)
		}
		if err := c.Mkdir("/vol0/missing/b"); err != ErrNotExist {
			t.Errorf("mkdir under missing: %v", err)
		}
		h, err := c.Create("/vol0/a/f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := c.Create("/vol0/a/f"); err != ErrExist {
			t.Errorf("duplicate create: %v", err)
		}
		if err := h.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := h.Close(); err != ErrClosed {
			t.Errorf("double close: %v", err)
		}
		if _, err := c.OpenRead("/vol0/a"); err != ErrIsDir {
			t.Errorf("open dir: %v", err)
		}
		if _, err := c.OpenRead("/vol0/a/nope"); err != ErrNotExist {
			t.Errorf("open missing: %v", err)
		}
		fi, err := c.Stat("/vol0/a/f")
		if err != nil || fi.Dir {
			t.Errorf("stat: %+v %v", fi, err)
		}
		ents, err := c.ReadDir("/vol0/a")
		if err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Errorf("readdir: %+v %v", ents, err)
		}
		if err := c.Remove("/vol0/a"); err != ErrNotEmpty {
			t.Errorf("remove non-empty: %v", err)
		}
		if err := c.Remove("/vol0/a/f"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if err := c.Remove("/vol0/a"); err != nil {
			t.Errorf("remove dir: %v", err)
		}
	})
}

// nodePath spells the path from the root to e.
func nodePath(e entry) string {
	n := e.base()
	switch {
	case n.parent == nil:
		return n.name
	case n.parent.parent == nil:
		return "/" + n.name
	}
	return nodePath(n.parent) + "/" + n.name
}

// TestLookupPaths pins how lookup and lookupParent read a path: leading
// and trailing slashes are ignored, an empty element between two misses,
// and a path with no element has no parent.  Neither allocates.
func TestLookupPaths(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		for _, d := range []string{"/vol0/a", "/vol0/a/b"} {
			if err := c.Mkdir(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Create("/vol0/a/f"); err != nil {
			t.Fatal(err)
		}
	})
	for _, tc := range []struct {
		path, node string
		err        error
	}{
		{"", "/", nil},
		{"/", "/", nil},
		{"///", "/", nil},
		{"vol0", "/vol0", nil},
		{"/vol0/", "/vol0", nil},
		{"//vol0/a//", "/vol0/a", nil},
		{"//vol0//a//", "", ErrNotExist},
		{"/vol0/a/b", "/vol0/a/b", nil},
		{"/vol0/a/f", "/vol0/a/f", nil},
		{"/vol0/a/f/", "/vol0/a/f", nil},
		{"/vol0//a", "", ErrNotExist},
		{"/vol0/a//b", "", ErrNotExist},
		{"/vol0/nope", "", ErrNotExist},
		{"/vol0/nope/x", "", ErrNotExist},
		{"/vol9", "", ErrNotExist},
		{"/vol0/a/f/x", "", ErrNotDir},
		{"/vol0/a/f//x", "", ErrNotDir},
	} {
		n, err := fs.lookup(tc.path)
		got := ""
		if n != nil {
			got = nodePath(n)
		}
		if got != tc.node || err != tc.err {
			t.Errorf("lookup(%q) = %q, %v; want %q, %v", tc.path, got, err, tc.node, tc.err)
		}
	}
	for _, tc := range []struct {
		path, dir, name string
		err             error
	}{
		{"", "", "", ErrExist},
		{"/", "", "", ErrExist},
		{"//", "", "", ErrExist},
		{"vol0", "/", "vol0", nil},
		{"/vol0/new", "/vol0", "new", nil},
		{"/vol0/a/new/", "/vol0/a", "new", nil},
		{"//vol0/a/b/new//", "/vol0/a/b", "new", nil},
		{"/vol0/a/f", "/vol0/a", "f", nil},
		{"/vol0//new", "", "", ErrNotExist},
		{"/vol0/nope/new", "", "", ErrNotExist},
		{"/vol0/nope/f/new", "", "", ErrNotExist},
		{"/vol0/a/f/new", "", "", ErrNotDir},
		{"/vol0/a/f/x/new", "", "", ErrNotDir},
	} {
		d, name, err := fs.lookupParent(tc.path)
		got := ""
		if d != nil {
			got = nodePath(d)
		}
		if got != tc.dir || name != tc.name || err != tc.err {
			t.Errorf("lookupParent(%q) = %q, %q, %v; want %q, %q, %v",
				tc.path, got, name, err, tc.dir, tc.name, tc.err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fs.lookup("/vol0/a/f")
		fs.lookupParent("/vol0/a/b/new")
	}); allocs != 0 {
		t.Errorf("lookup + lookupParent: %v allocs, want 0", allocs)
	}
}

func TestRename(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/x")
		h.WriteAt(0, payload.FromBytes([]byte("data")))
		h.Close()
		if err := c.Rename("/vol0/x", "/vol0/y"); err != nil {
			t.Fatalf("rename: %v", err)
		}
		if _, err := c.Stat("/vol0/x"); err != ErrNotExist {
			t.Errorf("old name lives: %v", err)
		}
		r, err := c.OpenRead("/vol0/y")
		if err != nil {
			t.Fatalf("open renamed: %v", err)
		}
		got, _ := r.ReadAt(0, 4)
		if string(got.Materialize()) != "data" {
			t.Error("renamed contents wrong")
		}
	})
}

// TestDirectoryOutgrowsSlice grows one directory past fewChildren and
// shrinks it to empty, on both sides of the move from its slice to its
// map: every child stays reachable, ReadDir lists exactly the children
// in lexical order, and Rename and Remove work in either storage.
func TestDirectoryOutgrowsSlice(t *testing.T) {
	const n = fewChildren + 4
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		for _, d := range []string{"/vol0/d", "/vol0/other"} {
			if err := c.Mkdir(d); err != nil {
				t.Fatal(err)
			}
		}
		e, _ := fs.lookup("/vol0/d")
		d := e.(*dirNode)
		var names []string // the children, kept sorted
		check := func(when string) {
			t.Helper()
			ents, err := c.ReadDir("/vol0/d")
			var got []string
			for _, fi := range ents {
				got = append(got, fi.Name)
				if fi.Dir != strings.HasPrefix(fi.Name, "s") {
					t.Errorf("%s: %s listed with Dir %v", when, fi.Name, fi.Dir)
				}
			}
			if err != nil || !slices.Equal(got, names) {
				t.Fatalf("%s: ReadDir = %v, %v; want %v", when, got, err, names)
			}
			for _, name := range names {
				if _, err := c.Stat("/vol0/d/" + name); err != nil {
					t.Errorf("%s: stat %s: %v", when, name, err)
				}
			}
			if d.len() != len(names) {
				t.Errorf("%s: directory counts %d children, holds %d", when, d.len(), len(names))
			}
		}
		renameBack := func(when, name string) {
			t.Helper()
			for _, hop := range [][2]string{
				{"/vol0/d/" + name, "/vol0/d/a" + name},
				{"/vol0/d/a" + name, "/vol0/other/" + name},
				{"/vol0/other/" + name, "/vol0/d/" + name},
			} {
				if err := c.Rename(hop[0], hop[1]); err != nil {
					t.Fatalf("%s: rename %s to %s: %v", when, hop[0], hop[1], err)
				}
			}
			if ents, err := c.ReadDir("/vol0/other"); err != nil || len(ents) != 0 {
				t.Fatalf("%s: the other directory lists %v, %v", when, ents, err)
			}
			check(when + ", renamed and back")
		}
		// Names arrive out of lexical order; "s" names are directories.
		for i := range n {
			kind := "f"
			if i%3 == 0 {
				kind = "s"
			}
			name := fmt.Sprintf("%s%02d", kind, (i*7)%n)
			if kind == "s" {
				if err := c.Mkdir("/vol0/d/" + name); err != nil {
					t.Fatal(err)
				}
			} else {
				h, err := c.Create("/vol0/d/" + name)
				if err != nil {
					t.Fatal(err)
				}
				h.Close()
			}
			names = append(names, name)
			slices.Sort(names)
			when := fmt.Sprintf("%d children", len(names))
			if mapped := d.many != nil; mapped != (len(names) > fewChildren) {
				t.Errorf("%s: children in a map is %v", when, mapped)
			}
			check(when)
			if err := c.Rename("/vol0/d/"+name, "/vol0/d/"+name); err != ErrExist {
				t.Errorf("%s: rename onto an existing child: %v", when, err)
			}
			renameBack(when, name)
		}
		for len(names) > 0 {
			name := names[0]
			if err := c.Remove("/vol0/d/" + name); err != nil {
				t.Fatal(err)
			}
			names = names[1:]
			if _, err := c.Stat("/vol0/d/" + name); err != ErrNotExist {
				t.Errorf("removed %s: stat %v", name, err)
			}
			when := fmt.Sprintf("removed down to %d", len(names))
			check(when)
			if len(names) > 0 {
				renameBack(when, names[len(names)-1])
			}
		}
		if err := c.Remove("/vol0/d"); err != nil {
			t.Errorf("remove emptied directory: %v", err)
		}
	})
}

func TestDataRoundtrip(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/f")
		h.WriteAt(0, payload.Synthetic(7, 0, 1<<20))
		h.WriteAt(1<<20, payload.FromBytes([]byte("tail")))
		got, err := h.ReadAt(0, 1<<20+4)
		if err != nil {
			t.Fatal(err)
		}
		want := payload.List{payload.Synthetic(7, 0, 1<<20), payload.FromBytes([]byte("tail"))}
		if !payload.ContentEqual(got, want) {
			t.Error("roundtrip mismatch")
		}
		if h.Size() != 1<<20+4 {
			t.Errorf("size = %d", h.Size())
		}
	})
}

func TestAppendReturnsOffsets(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/log")
		o1, _ := h.Append(payload.Synthetic(1, 0, 100))
		o2, _ := h.Append(payload.Synthetic(1, 100, 50))
		if o1 != 0 || o2 != 100 {
			t.Errorf("append offsets = %d, %d", o1, o2)
		}
	})
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/f")
		h.WriteAt(0, payload.Zeros(10))
		h.Close()
		r, _ := c.OpenRead("/vol0/f")
		if err := r.WriteAt(0, payload.Zeros(1)); err != ErrReadOnly {
			t.Errorf("write on read handle: %v", err)
		}
	})
}

// TestN1SharedWriteSlowerThanNN verifies the paper's core premise: the
// same aggregate volume written by concurrent processes is far slower
// into one shared file (range-lock ping-pong) than into unique files.
func TestN1SharedWriteSlowerThanNN(t *testing.T) {
	const procs = 32
	const writes = 20
	const wsize = 47 << 10 // unaligned with the 64K lock unit

	run := func(shared bool) sim.Time {
		eng, fs := testFS(7, nil)
		var ready sim.Gate
		created := false
		for i := 0; i < procs; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				c := fs.Client(i%fs.Cfg.Nodes, p)
				var h *Handle
				var err error
				if shared {
					// Rank 0 creates the shared file; the rest open it.
					if i == 0 {
						h, err = c.Create("/vol0/shared")
						created = true
						ready.OpenAll()
					} else {
						if !created {
							ready.Wait(p)
						}
						h, err = c.OpenWrite("/vol0/shared")
					}
				} else {
					h, err = c.Create(fmt.Sprintf("/vol0/f%d", i))
				}
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < writes; k++ {
					var off int64
					if shared {
						// N-1 strided: interleaved offsets.
						off = int64(k*procs+i) * wsize
					} else {
						off = int64(k) * wsize
					}
					if err := h.WriteAt(off, payload.Synthetic(uint64(i+1), off, wsize)); err != nil {
						t.Error(err)
					}
				}
				h.Close()
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}

	tShared := run(true)
	tUnique := run(false)
	if ratio := float64(tShared) / float64(tUnique); ratio < 3 {
		t.Fatalf("shared/unique write time ratio = %.2f, want the N-1 penalty (>3x)", ratio)
	}
}

// TestSequentialReadFasterThanStrided verifies the prefetch model: reading
// a file sequentially avoids the positioning penalty that strided reads
// pay per request.
func TestSequentialReadFasterThanStrided(t *testing.T) {
	const n = 64
	const rsize = 50 << 10
	prep := func(fs *FS, p *sim.Proc) *Handle {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/f")
		h.WriteAt(0, payload.Synthetic(1, 0, n*rsize))
		h.Close()
		r, _ := c.OpenRead("/vol0/f")
		return r
	}
	runPattern := func(strided bool) sim.Time {
		eng, fs := testFS(3, func(c *Config) { c.ClientCacheBytes = 0; c.ServerCacheBytes = 0 })
		return runOne(t, eng, func(p *sim.Proc) {
			r := prep(fs, p)
			for k := 0; k < n; k++ {
				idx := k
				if strided {
					idx = (k * 7) % n // jump around
				}
				if _, err := r.ReadAt(int64(idx)*rsize, rsize); err != nil {
					t.Error(err)
				}
			}
		})
	}
	seq := runPattern(false)
	str := runPattern(true)
	if ratio := float64(str) / float64(seq); ratio < 2 {
		t.Fatalf("strided/sequential read ratio = %.2f, want seek penalty (>2x)", ratio)
	}
}

// TestCacheMakesRereadFast verifies that re-reading recently written data
// is served from the node cache at memory speed.
func TestCacheMakesRereadFast(t *testing.T) {
	const size = 64 << 20
	eng, fs := testFS(3, nil)
	var writeT, rereadT sim.Time
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/f")
		start := p.Now()
		h.WriteAt(0, payload.Synthetic(1, 0, size))
		writeT = p.Now() - start
		start = p.Now()
		h.ReadAt(0, size)
		rereadT = p.Now() - start
	})
	if rereadT*2 > writeT {
		t.Fatalf("cached re-read %v not much faster than write %v", rereadT, writeT)
	}
	if fs.CacheHitB != size {
		t.Fatalf("cache hit bytes = %d, want %d", fs.CacheHitB, size)
	}
}

// TestHotDirectoryContention verifies that creating many files in one
// directory is slower than creating them spread over many directories —
// the single-directory metadata bottleneck of N-N workloads.
func TestHotDirectoryContention(t *testing.T) {
	const procs = 64
	run := func(spread bool) sim.Time {
		eng, fs := testFS(5, nil)
		var storm sim.Time // duration of the create storm only, not setup
		eng.Spawn("setup", func(p *sim.Proc) {
			c := fs.Client(0, p)
			if spread {
				for i := 0; i < procs; i++ {
					if err := c.Mkdir(fmt.Sprintf("/vol0/d%d", i)); err != nil {
						t.Error(err)
					}
				}
			}
			start := p.Now()
			var wg sim.WaitGroup
			wg.Add(procs)
			for i := 0; i < procs; i++ {
				i := i
				eng.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
					cc := fs.Client(i%fs.Cfg.Nodes, p)
					path := fmt.Sprintf("/vol0/f%d", i)
					if spread {
						path = fmt.Sprintf("/vol0/d%d/f", i)
					}
					h, err := cc.Create(path)
					if err != nil {
						t.Error(err)
					} else {
						h.Close()
					}
					wg.Done()
				})
			}
			wg.Wait(p)
			storm = p.Now() - start
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return storm
	}
	hot := run(false)
	cold := run(true)
	if ratio := float64(hot) / float64(cold); ratio < 1.5 {
		t.Fatalf("hot/spread create ratio = %.2f, want directory serialization (>1.5x)", ratio)
	}
}

// TestVolumesParallelizeMetadata verifies that spreading create load over
// multiple volumes scales metadata throughput — the mechanism behind
// PLFS federated metadata.
func TestVolumesParallelizeMetadata(t *testing.T) {
	const procs = 64
	run := func(vols int) sim.Time {
		eng, fs := testFS(5, func(c *Config) { c.Volumes = vols })
		eng.Spawn("root", func(p *sim.Proc) {
			var wg sim.WaitGroup
			wg.Add(procs)
			for i := 0; i < procs; i++ {
				i := i
				eng.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
					cc := fs.Client(i%fs.Cfg.Nodes, p)
					h, err := cc.Create(fmt.Sprintf("%s/f%d", fs.VolumeRoot(i%vols), i))
					if err != nil {
						t.Error(err)
					} else {
						h.Close()
					}
					wg.Done()
				})
			}
			wg.Wait(p)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	one := run(1)
	eight := run(8)
	if ratio := float64(one) / float64(eight); ratio < 3 {
		t.Fatalf("1-vol/8-vol create ratio = %.2f, want metadata scaling (>3x)", ratio)
	}
}

// TestStorageNetworkCapsBandwidth verifies aggregate write bandwidth is
// bounded by the storage network peak.
func TestStorageNetworkCapsBandwidth(t *testing.T) {
	const procs = 16
	const size = 32 << 20
	eng, fs := testFS(5, nil)
	eng.Spawn("root", func(p *sim.Proc) {
		var wg sim.WaitGroup
		wg.Add(procs)
		for i := 0; i < procs; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				c := fs.Client(i%fs.Cfg.Nodes, p)
				h, err := c.Create(fmt.Sprintf("/vol0/f%d", i))
				if err != nil {
					t.Error(err)
				}
				h.WriteAt(0, payload.Synthetic(uint64(i+1), 0, size))
				h.Close()
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(procs*size) / eng.Now().Seconds()
	if bw > fs.StoragePeak()*1.05 {
		t.Fatalf("aggregate bw %.0f exceeds peak %.0f", bw, fs.StoragePeak())
	}
	if bw < fs.StoragePeak()*0.5 {
		t.Fatalf("aggregate bw %.0f far below peak %.0f (model too slow)", bw, fs.StoragePeak())
	}
}

func TestJitterProducesVariance(t *testing.T) {
	run := func(seed int64) sim.Time {
		eng := sim.NewEngine(seed)
		cfg := SmallCluster() // default jitter
		fs := New(eng, cfg)
		eng.Spawn("p", func(p *sim.Proc) {
			c := fs.Client(0, p)
			for i := 0; i < 10; i++ {
				h, _ := c.Create(fmt.Sprintf("/vol0/f%d", i))
				h.WriteAt(0, payload.Zeros(1<<20))
				h.Close()
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds gave identical times despite jitter")
	}
	if run(3) != run(3) {
		t.Fatal("same seed gave different times")
	}
}

func TestMkdirVolumeInheritance(t *testing.T) {
	eng, fs := testFS(1, func(c *Config) { c.Volumes = 4 })
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		if err := c.Mkdir("/vol2/d"); err != nil {
			t.Fatal(err)
		}
		n, err := fs.lookup("/vol2/d")
		if err != nil || n.base().vol != 2 {
			t.Fatalf("vol = %d, err = %v", n.base().vol, err)
		}
	})
}

func TestTransferTouchesOSTsAndNet(t *testing.T) {
	eng, fs := testFS(1, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/f")
		h.WriteAt(0, payload.Zeros(8<<20))
	})
	if fs.snet.Moved != 8<<20 {
		t.Fatalf("storage net moved %d", fs.snet.Moved)
	}
	var ost int64
	for _, g := range fs.groups {
		ost += g.Moved
	}
	if ost < 8<<20 {
		t.Fatalf("ost groups moved %d", ost)
	}
}

func TestReadDirCostScalesWithEntries(t *testing.T) {
	mk := func(entries int) sim.Time {
		eng, fs := testFS(1, func(c *Config) { c.ReadDirEnt = 100 * time.Microsecond })
		return runOne(t, eng, func(p *sim.Proc) {
			c := fs.Client(0, p)
			for i := 0; i < entries; i++ {
				h, _ := c.Create(fmt.Sprintf("/vol0/f%d", i))
				h.Close()
			}
			start := p.Now()
			c.ReadDir("/vol0")
			if d := p.Now() - start; d <= 0 {
				t.Error("free readdir")
			}
		})
	}
	if mk(100) <= mk(2) {
		t.Fatal("readdir cost did not scale with entries")
	}
}

func TestReportSummarizesActivity(t *testing.T) {
	eng, fs := testFS(2, nil)
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		h, _ := c.Create("/vol0/r")
		h.WriteAt(0, payload.Synthetic(1, 0, 1<<20))
		h.ReadAt(0, 1<<20)
		h.Close()
	})
	rep := fs.Report()
	if rep.MetaOps == 0 || rep.NetBytes < 1<<20 || rep.DiskBytes == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CacheHitPct != 100 {
		t.Fatalf("reread of own write should hit: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// steadyMallocs runs warm operations, then ops more, and returns the
// heap allocations per operation of the second run.  Called from inside
// an engine run, it counts what the engine does on the operations'
// behalf too.
func steadyMallocs(warm, ops int, op func(i int)) float64 {
	for i := 0; i < warm; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// TestSteadyStateAllocFree: once warm, the model's side of reading an
// already-cached block (cache lookup, stream table, memory-speed charge)
// and of a block's transfer through the storage network and the OST
// groups (stripe shares, flows, their wait) allocate nothing.  Nor does a
// range-lock acquire on a file two nodes write: the two take turns
// stealing alternate units of a 64-unit stripe, so every acquire splits
// or merges segments.  The bytes ReadAt returns are the payload store's
// and are not counted.
func TestSteadyStateAllocFree(t *testing.T) {
	const block = 64 << 10
	eng, fs := testFS(1, nil)
	var hit, transfer, lock float64
	runOne(t, eng, func(p *sim.Proc) {
		h, err := fs.Client(0, p).Create("/vol0/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteAt(0, payload.Synthetic(1, 0, 4*block)); err != nil {
			t.Fatal(err)
		}
		hit = steadyMallocs(1000, 10000, func(i int) { h.read(int64(i%4)*block, block) })
		transfer = steadyMallocs(1000, 10000, func(i int) { h.transfer(int64(i%64)*block, block, block, i%3 == 0, false) })
		if h.f.lk != nil {
			t.Fatal("a single-writer file made lock state")
		}
		h2, err := fs.Client(1, p).OpenWrite("/vol0/f")
		if err != nil {
			t.Fatal(err)
		}
		if h.f.writeOpeners != 2 {
			t.Fatalf("%d write openers, want 2", h.f.writeOpeners)
		}
		nodes := [2]int{h.c.node, h2.c.node}
		start := p.Now()
		lock = steadyMallocs(1000, 10000, func(i int) {
			u := int64(i % 64)
			if rpcs := h.f.locks().tokens.acquire(u, u+1, nodes[(i+i/64)%2]); rpcs > 0 {
				h.chargeLocks(rpcs)
			}
		})
		// Uncontended and unjittered, the charges are the whole delay.
		if d, want := p.Now()-start, sim.Time(fs.LockOps)*sim.Time(fs.Cfg.LockRPC); d != want {
			t.Errorf("lock charges took %v, want %d RPCs × %v = %v", time.Duration(d), fs.LockOps, fs.Cfg.LockRPC, time.Duration(want))
		}
	})
	if fs.CacheMisB != 0 {
		t.Fatalf("%d bytes missed the cache", fs.CacheMisB)
	}
	// The first lap grants each of the 64 units (one RPC); every later
	// acquire steals its unit from the other node (a revoke and a grant).
	if want := int64(64 + 2*(11000-64)); fs.LockOps != want {
		t.Errorf("%d lock RPCs over 11,000 acquires, want %d", fs.LockOps, want)
	}
	if hit >= 0.01 {
		t.Errorf("cached read: %.3f mallocs per read, want < 0.01", hit)
	}
	if transfer >= 0.01 {
		t.Errorf("block transfer: %.3f mallocs per transfer, want < 0.01", transfer)
	}
	if lock >= 0.01 {
		t.Errorf("lock acquire: %.3f mallocs per acquire, want < 0.01", lock)
	}
}

// cachedBlocks counts the blocks a cache holds.
func cachedBlocks(c *cache) int {
	n := 0
	for _, s := range c.objs {
		n += s.n
	}
	return n
}

// TestNewMakesNoNodeState: a file system makes a node's client cache on
// the node's first I/O, so New makes none on Cielo's 8,894 nodes and,
// counted without the race detector, allocates as much as on one node.
func TestNewMakesNoNodeState(t *testing.T) {
	cfg := Cielo()
	if fs := New(sim.NewEngine(1), cfg); len(fs.nodes) != 0 {
		t.Errorf("New on %d nodes made a node table of %d", cfg.Nodes, len(fs.nodes))
	}
	if raceEnabled {
		return
	}
	allocs := func(nodes int) float64 {
		cfg.Nodes = nodes
		eng := sim.NewEngine(1)
		return testing.AllocsPerRun(10, func() { New(eng, cfg) })
	}
	one, cielo := allocs(1), allocs(Cielo().Nodes)
	if cielo > one+2 {
		t.Errorf("New on %d nodes: %.0f allocations, on one node %.0f", Cielo().Nodes, cielo, one)
	}
}

// steadyBytes runs warm operations, then ops more, and returns the heap
// bytes allocated per operation of the second run.
func steadyBytes(warm, ops int, op func(i int)) float64 {
	for i := 0; i < warm; i++ {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

// TestNamespaceEntryBytes: a directory costs its dirNode and a file its
// fileNode and handle, each with its share of its parent's children;
// neither carries the other's state.  The 4,096 directories share one
// parent, whose children outgrow the short slice into a map; each gets
// one file, which its directory keeps in the slice.  The bounds are the
// measured 271 and 184 bytes plus 5%, counted without the race detector.
func TestNamespaceEntryBytes(t *testing.T) {
	const n = 4096
	const mkdirBytes, createBytes = 285, 195
	dirs := make([]string, n)
	files := make([]string, n)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/vol0/d%d", i)
		files[i] = dirs[i] + "/f"
	}
	eng, fs := testFS(1, nil)
	var mkdir, create float64
	runOne(t, eng, func(p *sim.Proc) {
		c := fs.Client(0, p)
		mkdir = steadyBytes(16, n-16, func(i int) {
			if err := c.Mkdir(dirs[i]); err != nil {
				t.Fatal(err)
			}
		})
		create = steadyBytes(16, n-16, func(i int) {
			h, err := c.Create(files[i])
			if err != nil {
				t.Fatal(err)
			}
			h.Close()
		})
	})
	t.Logf("%.0f bytes per Mkdir, %.0f per Create", mkdir, create)
	if raceEnabled {
		return
	}
	if mkdir > mkdirBytes {
		t.Errorf("Mkdir: %.0f bytes, want at most %d", mkdir, mkdirBytes)
	}
	if create > createBytes {
		t.Errorf("Create: %.0f bytes, want at most %d", create, createBytes)
	}
}

// TestCacheDropsReachNodesWithState: after writes from two nodes,
// DropCaches and Remove leave neither node holding a cached block, and
// make no client cache for any other node.
func TestCacheDropsReachNodesWithState(t *testing.T) {
	eng, fs := testFS(1, func(c *Config) { c.Nodes = 8 })
	nodes := []int{1, 5}
	held := func(when string) {
		t.Helper()
		made := 0
		for _, c := range fs.nodes {
			if c != nil {
				made++
			}
		}
		if made != len(nodes) {
			t.Fatalf("%s: %d nodes have a cache, want %d", when, made, len(nodes))
		}
		for _, n := range nodes {
			if b := cachedBlocks(fs.nodes[n]); b != 0 {
				t.Errorf("%s: node %d holds %d cached blocks", when, n, b)
			}
		}
	}
	runOne(t, eng, func(p *sim.Proc) {
		write := func() {
			for _, n := range nodes {
				h, err := fs.Client(n, p).Create(fmt.Sprintf("/vol0/f%d", n))
				if err != nil {
					t.Fatal(err)
				}
				if err := h.WriteAt(0, payload.Synthetic(uint64(n), 0, 1<<20)); err != nil {
					t.Fatal(err)
				}
				h.Close()
				if cachedBlocks(fs.nodes[n]) == 0 {
					t.Fatalf("node %d cached nothing of its write", n)
				}
			}
		}
		write()
		fs.DropCaches()
		held("after DropCaches")
		for _, n := range nodes {
			if err := fs.Client(n, p).Remove(fmt.Sprintf("/vol0/f%d", n)); err != nil {
				t.Fatal(err)
			}
		}
		write()
		for _, n := range nodes {
			if err := fs.Client(0, p).Remove(fmt.Sprintf("/vol0/f%d", n)); err != nil {
				t.Fatal(err)
			}
		}
		held("after Remove")
	})
}
