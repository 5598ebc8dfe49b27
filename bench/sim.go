package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"plfs/internal/adio"
	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

// simWorkload is a workload on the simulated cluster: one or more
// harness jobs per iteration, timed on the host clock, reporting the
// modeled cluster's virtual phase times.
type simWorkload struct {
	name string
	sc   scale
	env  runEnv
	seed int64
	// ref holds the virtual metrics of the first iteration after setup;
	// every later iteration of the same seed must reproduce them exactly.
	ref []float64
	reg *obs.Registry // registry of the last traced iteration
}

func (w *simWorkload) setup(seed int64) error {
	w.seed = seed
	w.ref = nil
	return nil
}

func (w *simWorkload) close() {}

// n1Job is the paper's headline scenario (Figs 4/8a): an N-1 strided
// checkpoint through PLFS with Parallel Index Read, then a restart that
// reads it back on a machine whose caches were dropped.
func (w *simWorkload) n1Job() harness.Job {
	cfg := pfs.Cielo()
	cfg.Volumes = 1
	return harness.Job{
		Seed: w.seed, Ranks: w.sc.n1Ranks, Cfg: cfg, Net: mpi.DefaultNet(),
		Opt:    plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32},
		Hints:  adio.Hints{ProcsPerNode: cfg.ProcsPerNode},
		Kernel: workloads.MPIIOTest(w.sc.n1Bytes, w.sc.n1Op), UsePLFS: true,
		ReadBack: true, Verify: true, DropCaches: true,
	}
}

// nnJob is one half of the Fig 8d pair: every rank creates, writes one
// small op to, closes, re-opens and reads its own file — directly on one
// metadata volume, or through PLFS on ten with containers spread.
func (w *simWorkload) nnJob(usePLFS bool) harness.Job {
	cfg := pfs.Cielo()
	cfg.Volumes = 1
	opt := plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32}
	if usePLFS {
		cfg.Volumes = 10
		opt.SpreadContainers = true
		opt.NumSubdirs = 4
	}
	return harness.Job{
		Seed: w.seed, Ranks: w.sc.nnRanks, Cfg: cfg, Net: mpi.DefaultNet(), Opt: opt,
		Hints:  adio.Hints{ProcsPerNode: cfg.ProcsPerNode},
		Kernel: workloads.NNFiles{BytesPerRank: w.sc.nnBytes, OpSize: w.sc.nnBytes}, UsePLFS: usePLFS,
		ReadBack: true, Verify: true, DropCaches: true,
	}
}

// jobOps counts the application-level operations one job issues: per
// rank a write open and close, a read open and close, and the data ops.
func jobOps(ranks int, bytesPerRank, op int64) int64 {
	return int64(ranks) * (4 + 2*(bytesPerRank/op))
}

func (w *simWorkload) iterate(trace bool, out *samples) iterStat {
	var reg *obs.Registry
	if trace {
		reg = obs.New()
		reg.SetSpanLimit(1 << 21) // every rank's phase spans, not the default 64Ki
		w.reg = reg
	}
	var st iterStat
	var virt []float64 // the exact-per-seed values of this iteration
	var res workloads.Result
	var rep pfs.Report
	var ranks int
	var directWall, plfsWall float64
	var direct workloads.Result

	g0 := readGoStats()
	start := time.Now()
	switch w.name {
	case wlN1Restart:
		job := w.n1Job()
		job.Obs = reg
		ranks = job.Ranks
		st.ops = jobOps(ranks, w.sc.n1Bytes, w.sc.n1Op)
		res, rep, st.err = harness.RunWithReport(job)
		plfsWall = time.Since(start).Seconds()
	case wlNNCreate:
		dj := w.nnJob(false)
		ranks = dj.Ranks
		st.ops = 2 * jobOps(ranks, w.sc.nnBytes, w.sc.nnBytes)
		direct, _, st.err = harness.RunWithReport(dj)
		directWall = time.Since(start).Seconds()
		if st.err == nil {
			pj := w.nnJob(true)
			pj.Obs = reg
			t1 := time.Now()
			res, rep, st.err = harness.RunWithReport(pj)
			plfsWall = time.Since(t1).Seconds()
		}
		virt = append(virt, direct.WriteOpen.Seconds(), direct.WriteBW(ranks), direct.ReadBW(ranks))
	}
	st.wall = time.Since(start).Seconds()
	g1 := readGoStats()
	if st.err != nil {
		st.failed = st.ops
		return st
	}

	writeMBps := res.WriteBW(ranks) / 1e6
	readMBps := res.ReadBW(ranks) / 1e6
	// open_s is the open the workload's figure reports: the read open of
	// the restart (Fig 4a) or the N-N create open (Fig 8b).
	openS := res.ReadOpen.Seconds()
	if w.name == wlNNCreate {
		openS = res.WriteOpen.Seconds()
	}
	virt = append(virt, writeMBps, readMBps, openS,
		res.WriteOpen.Seconds(), res.Write.Seconds(), res.WriteClose.Seconds(), res.Read.Seconds(), res.ReadClose.Seconds())
	if w.ref == nil {
		w.ref = virt
	} else if !equalFloats(w.ref, virt) {
		st.failed = st.ops
		st.err = fmt.Errorf("%s: virtual metrics differ from the first iteration of seed %d: %v vs %v", w.name, w.seed, virt, w.ref)
	}

	if !trace {
		out.add("host_wall_s", st.wall)
		out.add("host_alloc_mb", g1.allocMB-g0.allocMB)
		out.add("write_mbps", writeMBps)
		out.add("read_mbps", readMBps)
		out.add("open_s", openS)
		return st
	}

	out.add("harness.job_wall_s", plfsWall)
	if w.name == wlNNCreate {
		out.add("nn.direct_wall_s", directWall)
		out.add("nn.plfs10_wall_s", plfsWall)
		out.add("nn.open_speedup_x", direct.WriteOpen.Seconds()/res.WriteOpen.Seconds())
	}
	out.add("adio.write_open_s", res.WriteOpen.Seconds())
	out.add("adio.write_io_s", res.Write.Seconds())
	out.add("adio.write_close_s", res.WriteClose.Seconds())
	out.add("adio.read_open_s", res.ReadOpen.Seconds())
	out.add("adio.read_io_s", res.Read.Seconds())
	addObsMetrics(out, reg)
	virtTotal := (res.WriteTotal() + res.ReadTotal()).Seconds()
	addPFSMetrics(out, rep, virtTotal)
	g1.addDelta(out, g0)
	return st
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// addObsMetrics reads the job's own registry: mean per-rank virtual
// seconds of each plfs phase span, and the plfs counters.
func addObsMetrics(out *samples, reg *obs.Registry) {
	mean := map[string]float64{}
	for _, row := range reg.Breakdown() {
		if row.Count > 0 {
			mean[row.Path] = row.Total.Seconds() / float64(row.Count)
		}
	}
	for _, m := range []struct{ metric, path string }{
		{"plfs.create_s", "create"},
		{"plfs.close.index_s", "close/index"},
		{"plfs.close.commit_s", "close/commit"},
		{"plfs.open.list_s", "open/list"},
		{"plfs.open.decode_s", "open/decode"},
		{"plfs.open.exchange_s", "open/exchange"},
		{"plfs.open.merge_s", "open/merge"},
	} {
		out.add(m.metric, mean[m.path])
	}
	snap := reg.Snapshot()
	for _, c := range []string{"plfs.open.index_reads", "plfs.open.index_bytes", "plfs.write.ops", "plfs.read.ops", "plfs.read.phys_bytes"} {
		out.add(c, float64(snap.Counters[c]))
	}
}

// addPFSMetrics reports the simulated file system's own accounting.
// mds_busy_max_share is the busiest metadata volume's busy time over the
// job's virtual phase time: near or above 1 means ranks queued on it.
func addPFSMetrics(out *samples, rep pfs.Report, virtSeconds float64) {
	busy := make([]float64, len(rep.MDSBusy))
	var sum, max float64
	for i := range rep.MDSBusy {
		busy[i] = (rep.MDSBusy[i] + rep.MDSReadBusy[i]).Seconds()
		sum += busy[i]
		if busy[i] > max {
			max = busy[i]
		}
	}
	sort.Float64s(busy)
	out.add("pfs.meta_ops", float64(rep.MetaOps))
	out.add("pfs.mds_busy_s", sum)
	if virtSeconds > 0 {
		out.add("pfs.mds_busy_max_share", max/virtSeconds)
	}
	if med := median(busy); med > 0 {
		out.add("pfs.mds_skew_x", max/med)
	}
	out.add("pfs.net_bytes", float64(rep.NetBytes))
	out.add("pfs.disk_bytes", float64(rep.DiskBytes))
	out.add("pfs.seeks", float64(rep.SeekOps))
	out.add("pfs.lock_rpcs", float64(rep.LockOps))
	out.add("pfs.cache_hit_pct", rep.CacheHitPct)
}

// writeSpans saves the last traced job's virtual-time spans.
func (w *simWorkload) writeSpans() error {
	if w.reg == nil {
		return nil
	}
	if err := os.MkdirAll(w.env.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(w.env.outDir, w.name+".spans.csv"))
	if err != nil {
		return err
	}
	if err := w.reg.WriteSpansCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *simWorkload) probes(out *samples) {
	out.add("obs.span_ns", probeObsSpan())
	out.add("sim.park_ns", probeSimPark(w.sc))
	out.add("sim.self_wake_ns", probeSimSelfWake(w.sc))
	out.add("sim.resource_use_ns", probeSimResource(w.sc))
	out.add("sim.spawn_us", probeSimSpawn(w.sc))
	if w.name == wlN1Restart {
		hostBarrier, virtBarrier, hostAllgather := probeMPI(w.sc)
		out.add("mpi.barrier_host_us", hostBarrier)
		out.add("mpi.barrier_virt_us", virtBarrier)
		out.add("mpi.allgather_host_us", hostAllgather)
		out.add("plfs.index_build_ns_per_rec.strided", probeIndexBuildStrided(w.sc))
	}
}
