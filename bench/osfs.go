package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"plfs/internal/comm"
	"plfs/internal/localcomm"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

const container = "checkpoint"

// osfsWorkload is a real on-disk N-1 checkpoint: rank goroutines write
// one logical file through plfs + localcomm + osfs into a temp dir, then
// the same ranks read it back collectively and every byte is compared
// with what was written.  Traced iterations also write and read the same
// offsets with plain os.File calls on one shared file, the raw baseline.
//
// Nothing is fsynced (osfs never does), so these are page-cache numbers
// of the sandbox, not of a device.
type osfsWorkload struct {
	name  string
	sc    scale
	env   runEnv
	ranks int
	op    int64
	// offs[r] lists rank r's logical offsets in the order it writes (and
	// later reads) them; image is the logical file they tile.
	offs   [][]int64
	image  []byte
	rawDst []byte    // where the raw baseline reads into; made by the first traced iteration
	base   string    // this workload's temp dir; one subdir per iteration
	trs    []*tracer // spans of the last traced iteration
}

func osfsRanks(sc scale) int {
	if sc.osfsRanks > 0 {
		return sc.osfsRanks
	}
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func (w *osfsWorkload) setup(seed int64) error {
	w.ranks = osfsRanks(w.sc)
	perRank := w.sc.streamBytes
	w.op = w.sc.streamOp
	if w.name == wlSmallRand {
		perRank, w.op = w.sc.smallBytes, w.sc.smallOp
	}
	opsPerRank := int(perRank / w.op)
	rng := rand.New(rand.NewSource(seed))
	w.image = make([]byte, int64(w.ranks)*int64(opsPerRank)*w.op)
	rng.Read(w.image)
	// Allocated in every mode, so traced and untraced iterations run with
	// the same live heap and the collector paces them alike.
	w.rawDst = make([]byte, len(w.image))
	w.offs = make([][]int64, w.ranks)
	var perm []int
	if w.name == wlSmallRand {
		// A seeded permutation of all slots: no two consecutive writes of
		// a rank form an arithmetic run, so the index keeps one record
		// per op.
		perm = rng.Perm(w.ranks * opsPerRank)
	}
	for r := range w.offs {
		w.offs[r] = make([]int64, opsPerRank)
		for k := range w.offs[r] {
			slot := k*w.ranks + r // strided: rank r's k-th op
			if perm != nil {
				slot = perm[r*opsPerRank+k]
			}
			w.offs[r][k] = int64(slot) * w.op
		}
	}
	var err error
	w.base, err = os.MkdirTemp(w.env.tmpDir, "plfs-bench-"+w.name+"-")
	return err
}

func (w *osfsWorkload) close() {
	if w.base != "" {
		os.RemoveAll(w.base)
	}
}

// rankStat is what one rank measured in one iteration.  Every phase is
// bracketed by the benchmark's own barrier, as the simulated kernels
// bracket theirs, so a phase time is the job's: all ranks start together
// and the phase ends when the slowest rank has finished.
type rankStat struct {
	create, write, closeW time.Duration // the checkpoint
	open, read, closeR    time.Duration // the restart
	busy                  time.Duration // time inside the phases, barrier waits excluded
	failed                int64
	err                   error
	got                   []payload.List // read results, verified after the clock stops
	records               int
}

func (rs *rankStat) writeWall() time.Duration { return rs.create + rs.write + rs.closeW }
func (rs *rankStat) readWall() time.Duration  { return rs.open + rs.read + rs.closeR }

func (rs *rankStat) fail(err error) {
	rs.failed++
	if rs.err == nil {
		rs.err = err
	}
}

// phase runs fn between two barriers and returns the job-level time.
func (rs *rankStat) phase(bar *localcomm.Comm, fn func()) time.Duration {
	bar.Barrier()
	t0 := time.Now()
	fn()
	rs.busy += time.Since(t0)
	bar.Barrier()
	return time.Since(t0)
}

// runRank is one rank's checkpoint and restart.  bar is the benchmark's
// own communicator, never traced.
func (w *osfsWorkload) runRank(r int, mount *plfs.Mount, cm comm.Comm, bar *localcomm.Comm, tr *tracer, rs *rankStat) {
	var be plfs.Backend = osfs.New()
	if tr != nil {
		be = tracedFS{fs: osfs.New(), t: tr}
		cm = tracedComm{c: cm, t: tr}
	}
	ctx := plfs.Ctx{Vols: []plfs.Backend{be}, Rank: r, Host: r / 4, HostLeader: r%4 == 0, Comm: cm}
	offs := w.offs[r]

	var wr *plfs.Writer
	rs.create = rs.phase(bar, func() {
		id := tr.begin("plfs.writer.create", true)
		var err error
		wr, err = mount.Create(ctx, container)
		tr.end(id)
		if err != nil {
			rs.fail(fmt.Errorf("rank %d: create: %w", r, err))
		}
	})
	rs.write = rs.phase(bar, func() {
		if wr == nil {
			return
		}
		for _, off := range offs {
			id := tr.begin("plfs.writer.write", true)
			err := wr.Write(off, payload.FromBytes(w.image[off:off+w.op]))
			tr.end(id)
			if err != nil {
				rs.fail(fmt.Errorf("rank %d: write at %d: %w", r, off, err))
			}
		}
	})
	rs.closeW = rs.phase(bar, func() {
		if wr == nil {
			return
		}
		id := tr.begin("plfs.writer.close", true)
		err := wr.Close()
		tr.end(id)
		if err != nil {
			rs.fail(fmt.Errorf("rank %d: close: %w", r, err))
		}
	})
	if r == 0 && w.sc.corruptRead {
		w.image[offs[0]] ^= 0xff // every rank is between barriers: nobody reads image now
	}

	var rd *plfs.Reader
	rs.open = rs.phase(bar, func() {
		id := tr.begin("plfs.reader.open", true)
		var err error
		rd, err = mount.OpenReader(ctx, container)
		tr.end(id)
		if err != nil {
			rs.fail(fmt.Errorf("rank %d: open: %w", r, err))
		}
	})
	rs.read = rs.phase(bar, func() {
		if rd == nil {
			return
		}
		rs.records = rd.Stats.RawEntries
		rs.got = make([]payload.List, len(offs))
		for k, off := range offs {
			id := tr.begin("plfs.reader.readat", true)
			got, err := rd.ReadAt(off, w.op)
			tr.end(id)
			if err != nil {
				rs.fail(fmt.Errorf("rank %d: read at %d: %w", r, off, err))
			}
			rs.got[k] = got
		}
	})
	rs.closeR = rs.phase(bar, func() {
		if rd == nil {
			return
		}
		id := tr.begin("plfs.reader.close", true)
		err := rd.Close()
		tr.end(id)
		if err != nil {
			rs.fail(fmt.Errorf("rank %d: reader close: %w", r, err))
		}
	})
}

// runRaw writes then reads rank r's offsets with plain positional I/O on
// the one shared file: open, ops and close are one phase each way.
func (w *osfsWorkload) runRaw(r int, path string, bar *localcomm.Comm, rs *rankStat) {
	offs := w.offs[r]
	rs.write = rs.phase(bar, func() {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			rs.fail(err)
			return
		}
		for _, off := range offs {
			if _, err := f.WriteAt(w.image[off:off+w.op], off); err != nil {
				rs.fail(err)
			}
		}
		if err := f.Close(); err != nil {
			rs.fail(err)
		}
	})
	rs.read = rs.phase(bar, func() {
		f, err := os.Open(path)
		if err != nil {
			rs.fail(err)
			return
		}
		for _, off := range offs {
			if _, err := f.ReadAt(w.rawDst[off:off+w.op], off); err != nil {
				rs.fail(err)
			}
		}
		f.Close()
	})
}

// listEquals reports whether the read result carries exactly want.
// (payload.ContentEqual compares byte payloads one byte at a time, which
// would take longer than the iteration it checks.)
func listEquals(got payload.List, want []byte) bool {
	if got.Len() != int64(len(want)) {
		return false
	}
	for _, p := range got {
		b := p.Bytes
		if b == nil {
			b = p.Materialize() // zeros past a short dropping, or a synthetic pattern
		}
		if !bytes.Equal(b, want[:len(b)]) {
			return false
		}
		want = want[len(b):]
	}
	return true
}

// eachRank runs fn on one goroutine per rank and waits for all.
func (w *osfsWorkload) eachRank(fn func(r int)) {
	var wg sync.WaitGroup
	for r := 0; r < w.ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

// jobOps counts one pass over the data: per rank an open and a close each
// way, and every write and read.
func (w *osfsWorkload) jobOps() int64 { return int64(w.ranks) * int64(2*len(w.offs[0])+4) }

func (w *osfsWorkload) iterate(trace bool, out *samples) iterStat {
	st := iterStat{ops: w.jobOps()}
	// A fresh directory per iteration, removed after the clock stops and
	// before the next iteration starts.
	dir, err := os.MkdirTemp(w.base, "iter-")
	if err != nil {
		st.err = err
		return st
	}
	defer os.RemoveAll(dir)
	root := filepath.Join(dir, "store")
	if err := os.Mkdir(root, 0o755); err != nil {
		st.err = err
		return st
	}
	// A fresh mount too: a restart finds no index cached.
	mount := plfs.NewMount([]string{root}, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
	comms, bars := localcomm.New(w.ranks), localcomm.New(w.ranks)
	stats := make([]rankStat, w.ranks)
	trs := make([]*tracer, w.ranks) // nil tracers: tracing off
	if trace {
		epoch := time.Now()
		for r := range trs {
			trs[r] = newTracer(r, epoch)
		}
		w.trs = trs
	}
	g0 := readGoStats()
	w.eachRank(func(r int) { w.runRank(r, mount, comms[r], bars[r], trs[r], &stats[r]) })
	g1 := readGoStats()
	job := &stats[0] // phases end on a barrier: every rank measured the same
	writeWall, readWall := job.writeWall(), job.readWall()
	st.wall = (writeWall + readWall).Seconds()

	// The clock has stopped: compare every read with what was written.
	var busy time.Duration
	for r := range stats {
		rs := &stats[r]
		for k, got := range rs.got {
			off := w.offs[r][k]
			if !listEquals(got, w.image[off:off+w.op]) {
				rs.fail(fmt.Errorf("rank %d: read-back mismatch at [%d,%d)", r, off, off+w.op))
			}
		}
		rs.got = nil
		st.failed += rs.failed
		if st.err == nil {
			st.err = rs.err
		}
		busy += rs.busy
	}
	userMB := float64(len(w.image)) / 1e6
	writeMBps := userMB / writeWall.Seconds()
	readMBps := userMB / readWall.Seconds()

	if !trace {
		out.add("host_wall_s", st.wall)
		out.add("host_alloc_mb", g1.allocMB-g0.allocMB)
		out.add("write_mbps", writeMBps)
		out.add("read_mbps", readMBps)
		out.add("open_s", job.open.Seconds())
		return st
	}

	stored, indexBytes, werr := containerBytes(root)
	if werr != nil && st.err == nil {
		st.err = werr
	}
	rawWriteMBps, rawReadMBps := w.rawBaseline(filepath.Join(dir, "raw.dat"), bars, &st)

	durs := spanDurations(trs)
	pct := func(name string, p float64) float64 { // ns; 0 when no such span was recorded
		if s := durs[name]; s != nil {
			return s.Percentile(p)
		}
		return 0
	}
	out.add("plfs.writer.create_ms", pct("plfs.writer.create", 50)/1e6)
	out.add("plfs.writer.write_us_p50", pct("plfs.writer.write", 50)/1e3)
	out.add("plfs.writer.write_us_p99", pct("plfs.writer.write", 99)/1e3)
	out.add("plfs.writer.close_ms", pct("plfs.writer.close", 50)/1e6)
	out.add("plfs.reader.open_ms", pct("plfs.reader.open", 50)/1e6)
	out.add("plfs.reader.readat_us_p50", pct("plfs.reader.readat", 50)/1e3)
	out.add("plfs.reader.readat_us_p99", pct("plfs.reader.readat", 99)/1e3)
	out.add("osfs.append_us_p50", pct("osfs.append", 50)/1e3)
	out.add("osfs.readat_us_p50", pct("osfs.readat", 50)/1e3)

	layer := map[string]int64{}
	var calls, metaCalls, wrote, read, commCalls int64
	for _, t := range trs {
		for l, ns := range t.layerTimes() {
			layer[l] += ns
		}
		calls += t.calls.Load()
		metaCalls += t.metaCalls.Load()
		wrote += t.bytesWritten.Load()
		read += t.bytesRead.Load()
		commCalls += t.commCalls.Load()
	}
	share := func(l string) float64 { return float64(layer[l]) / float64(busy) }
	out.add("plfs.self_share", share("plfs"))
	out.add("osfs.busy_share", share("osfs"))
	out.add("localcomm.wait_share", share("localcomm"))
	out.add("obs.span_coverage_pct", 100*(share("plfs")+share("osfs")+share("localcomm")))
	out.add("plfs.index_records", float64(stats[0].records))
	out.add("plfs.index_bytes", float64(indexBytes))
	out.add("osfs.calls", float64(calls))
	out.add("osfs.meta_calls", float64(metaCalls))
	out.add("osfs.bytes_written", float64(wrote))
	out.add("osfs.bytes_read", float64(read))
	out.add("osfs.store_amp_x", float64(stored)/float64(len(w.image)))
	out.add("localcomm.calls", float64(commCalls))
	out.add("raw.write_mbps", rawWriteMBps)
	out.add("raw.read_mbps", rawReadMBps)
	out.add("plfs_vs_raw.write_x", writeMBps/rawWriteMBps)
	out.add("plfs_vs_raw.read_x", readMBps/rawReadMBps)
	g1.addDelta(out, g0)
	return st
}

// containerBytes sums what the container cost on disk, and the share of
// it that is index droppings.
func containerBytes(root string) (stored, index int64, err error) {
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		stored += info.Size()
		if strings.HasPrefix(d.Name(), "dropping.index.") {
			index += info.Size()
		}
		return nil
	})
	return stored, index, err
}

// rawBaseline moves the same bytes at the same offsets with no
// middleware, verifies them, and returns the write and read MB/s.  Its
// operations count toward st like the workload's own.
func (w *osfsWorkload) rawBaseline(path string, bars []*localcomm.Comm, st *iterStat) (writeMBps, readMBps float64) {
	st.ops += w.jobOps()
	clear(w.rawDst)
	stats := make([]rankStat, w.ranks)
	w.eachRank(func(r int) { w.runRaw(r, path, bars[r], &stats[r]) })
	for r := range stats {
		st.failed += stats[r].failed
		if st.err == nil {
			st.err = stats[r].err
		}
	}
	if !bytes.Equal(w.rawDst, w.image) {
		st.failed++
		if st.err == nil {
			st.err = fmt.Errorf("raw baseline read-back mismatch")
		}
	}
	userMB := float64(len(w.image)) / 1e6
	return userMB / stats[0].write.Seconds(), userMB / stats[0].read.Seconds()
}

func (w *osfsWorkload) writeSpans() error {
	if w.trs == nil {
		return nil
	}
	return writeSpansCSV(w.env.outDir, w.name, w.trs)
}

func (w *osfsWorkload) probes(out *samples) {
	out.add("obs.span_ns", probeTracerSpan())
	if w.name == wlStream {
		out.add("payload.materialize_gbps", probeMaterialize(w.sc))
		return
	}
	build, lookup := probeIndexRandom(w.sc)
	out.add("plfs.index_build_ns_per_rec.random", build)
	out.add("plfs.index_lookup_ns", lookup)
	out.add("fault.wrap_ns_per_op", probeFaultWrap(w.sc, w.base))
}
