package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plfs/internal/comm"
	"plfs/internal/extent"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
	"plfs/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented).  IDs are unique
// within a rank; parent 0 means the benchmark itself made the call.
type span struct {
	name       string
	id, parent int32
	start, end int64 // ns since the tracer's epoch
}

// tracer collects one rank's spans in memory.  The rank goroutine opens
// the benchmark-level spans (one per call into plfs); the backend and
// communicator shims record their calls as children of whichever of
// those is open.  The reader fans backend reads out across goroutines,
// so appends are locked and the open parent is an atomic.
//
// A nil *tracer is the tracing-off state: begin and end do nothing.
type tracer struct {
	rank  int
	epoch time.Time
	open  atomic.Int32 // id of the benchmark-level span in flight, 0 if none

	mu    sync.Mutex
	spans []span

	// Exact counts taken by the shims.
	calls, metaCalls        atomic.Int64 // osfs
	bytesWritten, bytesRead atomic.Int64
	commCalls               atomic.Int64 // localcomm
}

func newTracer(rank int, epoch time.Time) *tracer {
	return &tracer{rank: rank, epoch: epoch, spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.  top marks a benchmark-level
// span, which becomes the parent of shim spans until it ends.
func (t *tracer) begin(name string, top bool) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, id: id, start: start})
	if top {
		t.open.Store(id)
	} else {
		t.spans[id-1].parent = t.open.Load()
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
	t.open.CompareAndSwap(id, 0)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi): the part of a parent span its children account for, counting
// overlapping (fanned-out) children once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// layerTimes attributes a rank's traced time to layers.  A span's self
// time is its duration minus what its children cover; a child layer's
// time is the union of its spans inside each parent (or its plain
// duration when the benchmark called it directly).
func (t *tracer) layerTimes() map[string]int64 {
	out := map[string]int64{}
	kids := map[int32][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, s := range t.spans {
		if s.parent != 0 {
			continue
		}
		dur := s.end - s.start
		all := make([][2]int64, 0, len(kids[s.id]))
		byLayer := map[string][][2]int64{}
		for _, k := range kids[s.id] {
			all = append(all, [2]int64{k.start, k.end})
			l := layerOf(k.name)
			byLayer[l] = append(byLayer[l], [2]int64{k.start, k.end})
		}
		out[layerOf(s.name)] += dur - covered(all, s.start, s.end)
		for l, iv := range byLayer {
			out[l] += covered(iv, s.start, s.end)
		}
	}
	return out
}

// spanDurations groups every rank's span durations, in ns, by span name.
func spanDurations(trs []*tracer) map[string]*stats.Sample {
	out := map[string]*stats.Sample{}
	for _, t := range trs {
		for _, s := range t.spans {
			smp := out[s.name]
			if smp == nil {
				smp = &stats.Sample{}
				out[s.name] = smp
			}
			smp.Add(float64(s.end - s.start))
		}
	}
	return out
}

// writeSpansCSV writes every rank's spans as
// rank,id,parent,name,start_ns,end_ns.
func writeSpansCSV(dir, workload string, trs []*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rank,id,parent,name,start_ns,end_ns")
	for _, t := range trs {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", t.rank, s.id, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS wraps the osfs backend in timing spans and exact counters.  It
// forwards every capability osfs advertises — ConcurrentIO and
// BulkCreator here, VectoredIO, BatchAppender and RangeLocker on files —
// so a traced run takes the code path an untraced run takes.
type tracedFS struct {
	fs osfs.FS
	t  *tracer
}

var (
	_ plfs.Backend       = tracedFS{}
	_ plfs.ConcurrentIO  = tracedFS{}
	_ plfs.BulkCreator   = tracedFS{}
	_ plfs.File          = (*tracedFile)(nil)
	_ plfs.VectoredIO    = (*tracedFile)(nil)
	_ plfs.BatchAppender = (*tracedFile)(nil)
	_ plfs.RangeLocker   = (*tracedFile)(nil)
)

// meta opens a span for a namespace or handle call (no payload bytes).
func (b tracedFS) meta(name string) int32 {
	b.t.calls.Add(1)
	b.t.metaCalls.Add(1)
	return b.t.begin(name, false)
}

func (b tracedFS) ConcurrentIO() bool { return b.fs.ConcurrentIO() }

func (b tracedFS) Mkdir(path string) error {
	defer b.t.end(b.meta("osfs.mkdir"))
	return b.fs.Mkdir(path)
}

func (b tracedFS) wrap(f plfs.File, err error) (plfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: f, b: b}, nil
}

func (b tracedFS) Create(path string) (plfs.File, error) {
	defer b.t.end(b.meta("osfs.create"))
	return b.wrap(b.fs.Create(path))
}

func (b tracedFS) CreateBulk(ops []plfs.BulkOp) []error {
	defer b.t.end(b.meta("osfs.create_bulk"))
	return b.fs.CreateBulk(ops)
}

func (b tracedFS) OpenRead(path string) (plfs.File, error) {
	defer b.t.end(b.meta("osfs.open"))
	return b.wrap(b.fs.OpenRead(path))
}

func (b tracedFS) OpenWrite(path string) (plfs.File, error) {
	defer b.t.end(b.meta("osfs.open"))
	return b.wrap(b.fs.OpenWrite(path))
}

func (b tracedFS) Stat(path string) (plfs.Info, error) {
	defer b.t.end(b.meta("osfs.stat"))
	return b.fs.Stat(path)
}

func (b tracedFS) ReadDir(path string) ([]plfs.Info, error) {
	defer b.t.end(b.meta("osfs.readdir"))
	return b.fs.ReadDir(path)
}

func (b tracedFS) Remove(path string) error {
	defer b.t.end(b.meta("osfs.remove"))
	return b.fs.Remove(path)
}

func (b tracedFS) Rename(oldPath, newPath string) error {
	defer b.t.end(b.meta("osfs.rename"))
	return b.fs.Rename(oldPath, newPath)
}

type tracedFile struct {
	f plfs.File
	b tracedFS
}

// data opens a span for a call that moves payload bytes.
func (f *tracedFile) data(name string, written, read int64) int32 {
	t := f.b.t
	t.calls.Add(1)
	t.bytesWritten.Add(written)
	t.bytesRead.Add(read)
	return t.begin(name, false)
}

func (f *tracedFile) WriteAt(off int64, p payload.Payload) error {
	defer f.b.t.end(f.data("osfs.writeat", p.Len(), 0))
	return f.f.WriteAt(off, p)
}

func (f *tracedFile) Append(p payload.Payload) (int64, error) {
	defer f.b.t.end(f.data("osfs.append", p.Len(), 0))
	return f.f.Append(p)
}

func (f *tracedFile) ReadAt(off, n int64) (payload.List, error) {
	defer f.b.t.end(f.data("osfs.readat", 0, n))
	return f.f.ReadAt(off, n)
}

func (f *tracedFile) Size() int64 {
	defer f.b.t.end(f.b.meta("osfs.size"))
	return f.f.Size()
}

func (f *tracedFile) Close() error {
	defer f.b.t.end(f.b.meta("osfs.close"))
	return f.f.Close()
}

func (f *tracedFile) WritevAt(segs []extent.Ext, data payload.List) error {
	defer f.b.t.end(f.data("osfs.writev", data.Len(), 0))
	return f.f.(plfs.VectoredIO).WritevAt(segs, data)
}

func (f *tracedFile) ReadvAt(segs []extent.Ext) (payload.List, error) {
	var n int64
	for _, e := range segs {
		n += e.Len
	}
	defer f.b.t.end(f.data("osfs.readv", 0, n))
	return f.f.(plfs.VectoredIO).ReadvAt(segs)
}

func (f *tracedFile) Appendv(pl payload.List) (int64, error) {
	defer f.b.t.end(f.data("osfs.appendv", pl.Len(), 0))
	return f.f.(plfs.BatchAppender).Appendv(pl)
}

func (f *tracedFile) LockRange(off, n int64) error {
	defer f.b.t.end(f.b.meta("osfs.lock"))
	return f.f.(plfs.RangeLocker).LockRange(off, n)
}

func (f *tracedFile) UnlockRange(off, n int64) error {
	defer f.b.t.end(f.b.meta("osfs.unlock"))
	return f.f.(plfs.RangeLocker).UnlockRange(off, n)
}

// tracedComm wraps a rank's communicator: every collective is a span
// whose duration is, on localcomm, the wait for the slowest rank.
type tracedComm struct {
	c comm.Comm
	t *tracer
}

func (c tracedComm) call(name string) int32 {
	c.t.commCalls.Add(1)
	return c.t.begin(name, false)
}

func (c tracedComm) Rank() int { return c.c.Rank() }
func (c tracedComm) Size() int { return c.c.Size() }

func (c tracedComm) Barrier() {
	defer c.t.end(c.call("localcomm.barrier"))
	c.c.Barrier()
}

func (c tracedComm) Bcast(root int, nbytes int64, v any) any {
	defer c.t.end(c.call("localcomm.bcast"))
	return c.c.Bcast(root, nbytes, v)
}

func (c tracedComm) Gather(root int, nbytes int64, v any) []any {
	defer c.t.end(c.call("localcomm.gather"))
	return c.c.Gather(root, nbytes, v)
}

func (c tracedComm) Scatter(root int, nbytesEach int64, vs []any) any {
	defer c.t.end(c.call("localcomm.scatter"))
	return c.c.Scatter(root, nbytesEach, vs)
}

func (c tracedComm) Allgather(nbytes int64, v any) []any {
	defer c.t.end(c.call("localcomm.allgather"))
	return c.c.Allgather(nbytes, v)
}

func (c tracedComm) Alltoall(nbytes []int64, vs []any) []any {
	defer c.t.end(c.call("localcomm.alltoall"))
	return c.c.Alltoall(nbytes, vs)
}

func (c tracedComm) Split(color, key int) comm.Comm {
	defer c.t.end(c.call("localcomm.split"))
	return tracedComm{c: c.c.Split(color, key), t: c.t}
}
