package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// scale holds every size the workloads and probes use, so the smoke test
// can run the same code at toy sizes.
type scale struct {
	n1Ranks        int
	n1Bytes, n1Op  int64 // per rank, per op
	nnRanks        int
	nnBytes        int64 // per rank, written as one op
	osfsRanks      int   // 0: min(4, nproc)
	streamBytes    int64 // per rank
	streamOp       int64
	smallBytes     int64 // per rank
	smallOp        int64
	probeProcs     int // sim.park_ns, sim.resource_use_ns, mpi.* world size
	probeSleeps    int // sleeps per proc in sim.park_ns
	probeSelfWakes int
	probeSpawns    int
	probeAppends   int // fault.wrap_ns_per_op
	setupReps      int // set-ups per run; setup_s is their median
	minIters       int
	// corruptRead, set only by the smoke test, makes the osfs workloads
	// flip one written byte before the read-back is verified.
	corruptRead bool
}

// fullScale is the benchmark as BENCHMARK.json describes it.  Sizes were
// chosen on a 2-vCPU VM: 2,048 ranks because the 4,096-rank restart
// varies ±15% in wall time there while 2,048 repeats within 3%; 128 MiB
// per rank so the streamed file is at least 4x a 54 MiB last-level cache.
var fullScale = scale{
	n1Ranks: 2048, n1Bytes: 2 << 20, n1Op: 64 << 10,
	nnRanks: 4096, nnBytes: 64 << 10,
	streamBytes: 128 << 20, streamOp: 64 << 10,
	smallBytes: 32 << 20, smallOp: 1 << 10,
	probeProcs: 2048, probeSleeps: 256, probeSelfWakes: 500_000, probeSpawns: 4096,
	probeAppends: 100_000,
	setupReps:    3, minIters: 3,
}

// toyScale keeps every code path and finishes in about a second.
var toyScale = scale{
	n1Ranks: 32, n1Bytes: 256 << 10, n1Op: 64 << 10,
	nnRanks: 64, nnBytes: 64 << 10,
	osfsRanks:   2,
	streamBytes: 512 << 10, streamOp: 64 << 10,
	smallBytes: 64 << 10, smallOp: 1 << 10,
	probeProcs: 32, probeSleeps: 8, probeSelfWakes: 1000, probeSpawns: 64,
	probeAppends: 200,
	setupReps:    1, minIters: 1,
}

// setupSeconds is how long a run keeps repeating a cheap set-up.
const setupSeconds = 3

// runEnv is where a run may write: spans and reports under outDir, the
// osfs workloads' containers under tmpDir ("" = $TMPDIR).
type runEnv struct {
	outDir string
	tmpDir string
}

// samples collects each metric's per-iteration readings in first-seen
// order; a run reports the median of each.
type samples struct {
	order []string
	vals  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	if s.vals == nil {
		s.vals = map[string][]float64{}
	}
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vals[name] = append(s.vals[name], v)
}

// iterStat is what one iteration did: operations attempted and failed,
// the host seconds it took (the host_wall_s definition of the workload),
// and the first error.
type iterStat struct {
	ops, failed int64
	wall        float64
	err         error
}

// workload is one closed-loop, bulk-synchronous load generator.
type workload interface {
	// setup generates the inputs for the seed.
	setup(seed int64) error
	// iterate runs the workload once and verifies its outputs.  Untraced
	// it adds the end-to-end readings to out; traced it records spans
	// and adds the per-layer readings.
	iterate(trace bool, out *samples) iterStat
	// probes drives single layers at the workload's sizes and adds their
	// per-layer readings.
	probes(out *samples)
	// writeSpans saves the last traced iteration's spans.
	writeSpans() error
	close()
}

func newWorkload(name string, sc scale, env runEnv) workload {
	if isSim(name) {
		return &simWorkload{name: name, sc: sc, env: env}
	}
	return &osfsWorkload{name: name, sc: sc, env: env}
}

// metricValue is one reported metric: the median of its samples, with
// the quartiles and sample count kept for the report file.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// result is one run of one workload in one trace mode.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Iters     int      `json:"iterations"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics is in BENCHMARK.json order, so two reports diff cleanly.
	Metrics []metricValue `json:"metrics"`
}

func (r *result) note(st iterStat) {
	r.Attempted += st.ops
	r.Failed += st.failed
	if st.err != nil {
		if st.failed == 0 {
			r.Failed += st.ops
		}
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, st.err.Error())
		}
	}
}

// runWorkload runs one workload for about the given seconds.
//
// Untraced: the set-up (input generation plus one untimed warm-up
// iteration) is repeated sc.setupReps times, or for setupSeconds if that
// takes longer, and setup_s is the median;
// then iterations are timed until the budget is spent.
//
// Traced: after one set-up, untraced and traced iterations alternate for
// half the budget — obs.trace_overhead_pct is the difference of their
// median wall times — and the layer probes use the rest.
func runWorkload(spec *benchSpec, name string, seed int64, seconds float64, trace bool, sc scale, env runEnv) (*result, error) {
	res := &result{Workload: name, Seed: seed, Trace: trace}
	var smp samples
	var w workload
	reps := sc.setupReps
	if trace {
		reps = 1
	}
	// A cheap set-up is repeated beyond reps until setupSeconds are spent:
	// the first set-up of a process pays for fresh memory the later ones
	// reuse, and three samples let that outlier be the median too often.
	for i, t := 0, time.Now(); i < reps || (reps > 1 && time.Since(t) < setupSeconds*time.Second); i++ {
		if w != nil {
			w.close()
		}
		runtime.GC() // the previous set-up's inputs are garbage; do not bill the next for them
		t0 := time.Now()
		w = newWorkload(name, sc, env)
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		var warm samples
		if st := w.iterate(false, &warm); st.err != nil || st.failed > 0 {
			w.close()
			return nil, fmt.Errorf("%s: warm-up iteration failed (%d of %d ops): %v", name, st.failed, st.ops, st.err)
		}
		if !trace {
			smp.add("setup_s", time.Since(t0).Seconds())
		}
	}
	defer w.close()

	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	if !trace {
		for res.Iters < sc.minIters || time.Since(start) < budget {
			res.note(w.iterate(false, &smp))
			res.Iters++
		}
	} else {
		var plain samples
		var plainWall, tracedWall []float64
		for res.Iters < sc.minIters || time.Since(start) < budget/2 {
			st := w.iterate(false, &plain)
			res.note(st)
			plainWall = append(plainWall, st.wall)
			st = w.iterate(true, &smp)
			res.note(st)
			tracedWall = append(tracedWall, st.wall)
			res.Iters++
		}
		smp.add("obs.trace_overhead_pct", 100*(median(tracedWall)/median(plainWall)-1))
		w.probes(&smp)
		if err := w.writeSpans(); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0

	known := map[string]bool{}
	for _, m := range spec.metrics(trace) {
		known[m.Name] = true
		mv := metricValue{Name: m.Name, Unit: m.Unit}
		if vals, ok := smp.vals[m.Name]; ok {
			mv.Q1, mv.Value, mv.Q3 = quartiles(vals)
			mv.N = len(vals)
			if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				return nil, fmt.Errorf("%s: metric %s is not a number (samples %v)", name, m.Name, vals)
			}
		} else if !trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, m.Name)
		}
		// A layer the workload does not use keeps value 0 and n 0.
		res.Metrics = append(res.Metrics, mv)
	}
	for _, n := range smp.order {
		if !known[n] {
			return nil, fmt.Errorf("%s: measured %s, which BENCHMARK.json does not list", name, n)
		}
	}
	return res, nil
}

// goStats is the Go runtime's cumulative accounting at one instant.
type goStats struct {
	allocMB  float64
	mallocs  float64
	gcCycles float64
	pauseMs  float64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{
		allocMB:  float64(m.TotalAlloc) / 1e6,
		mallocs:  float64(m.Mallocs),
		gcCycles: float64(m.NumGC),
		pauseMs:  float64(m.PauseTotalNs) / 1e6,
	}
}

// addDelta reports the runtime's work since before.
func (g goStats) addDelta(out *samples, before goStats) {
	out.add("go.gc_cycles", g.gcCycles-before.gcCycles)
	out.add("go.gc_pause_ms", g.pauseMs-before.pauseMs)
	out.add("go.mallocs", g.mallocs-before.mallocs)
}
