package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"plfs/internal/fault"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/stats"
)

// Figure is one reproducible experiment from the paper's evaluation, as
// a value: its panels, the runs behind them in output order, and the
// numbers it is summarized by.  Figures lists them; Run is the one loop
// that regenerates any of them.
type Figure struct {
	ID, Title string
	Panels    []Panel
	// Points lists the figure's runs at o's scale, in output order.
	Points func(o Options) []Point
	// Headline holds the numbers the figure is summarized by (the
	// figure benchmark reports them).
	Headline []Metric
	// Pins names the suite-wide flags (Options) the figure overrides,
	// and why; empty means it honors all of them.
	Pins string
	// OwnObs marks a figure whose cells read counters: each run records
	// into a fresh registry of its own, so -metrics gets nothing from it.
	OwnObs bool
}

// Panel is one table of a figure.
type Panel struct{ Title, XLabel, YLabel string }

// Point is one x of one series.  Measure runs one repetition and returns
// its cells; cell i of every repetition is the same (panel, series, x)
// and aggregates into one table point.
type Point struct {
	Series string
	X      float64
	// Ranks is the job size: repsFor trims repetitions by it on the most
	// expensive points, and Run admits runs by it (maxRanksInFlight); 0
	// never trims and never waits.
	Ranks   int
	Measure func(o Options, seed int64) ([]Cell, error)
	// Derive, if set, adds one cell (a single observation) computed from
	// the samples of this point's cells, in their order.
	Derive func(samples []stats.Sample) Cell
}

// Cell is one value of one run, bound for (Panel, Series, X).
type Cell struct {
	Panel  int
	Series string
	X, V   float64
}

// Metric is one headline number read off a figure's tables.
type Metric struct {
	Name string
	Of   func(tabs []*stats.Table) float64
}

// FindFigure resolves an id.
func FindFigure(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Run regenerates the figure: every point's repetitions, aggregated in
// order into the figure's tables.  Runs share nothing, so they run on
// GOMAXPROCS workers, as many at once as maxRanksInFlight allows; cells,
// Derive, Progress lines, registries and the first error come back in
// table order, so the output does not depend on the width.
func (f Figure) Run(o Options) ([]*stats.Table, error) {
	return f.run(o, runtime.GOMAXPROCS(0))
}

// maxRanksInFlight caps the simulated ranks of the runs Run holds at
// once; a larger run runs alone.  A run's resident memory grows with its
// ranks (one of fig8a's 65,536-rank runs peaks at 5.3 GB, EXPERIMENTS.md
// "Runs are values"), so paper-scale points run a few at a time at
// any GOMAXPROCS, while quick-scale points fill every worker.
const maxRanksInFlight = 16384

// baseSeed is the seed of a point's first repetition; repetition k runs
// with baseSeed+k.
const baseSeed = 1000

// run is Run on width workers.
func (f Figure) run(o Options, width int) ([]*stats.Table, error) {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	tabs := make([]*stats.Table, len(f.Panels))
	for i, p := range f.Panels {
		tabs[i] = &stats.Table{Title: p.Title, XLabel: p.XLabel, YLabel: p.YLabel}
	}
	// One slot per (point, repetition), in table order.
	type slot struct {
		pt, rep, ranks int
		cells          []Cell
		reg            *obs.Registry // the run's registry, merged into o.Obs
		err            error
		done           chan struct{}
	}
	pts := f.Points(o)
	var slots []slot
	for i, pt := range pts {
		for rep := 0; rep < o.repsFor(pt.Ranks); rep++ {
			slots = append(slots, slot{pt: i, rep: rep, ranks: pt.Ranks, done: make(chan struct{})})
		}
	}
	// Workers take slots in order, each once the ranks in flight leave
	// room for its own (maxRanksInFlight).  They stop taking slots after
	// a failure, so every slot up to the first failed one is run.
	var mu sync.Mutex
	room := sync.NewCond(&mu)
	next, inFlight, failed := 0, 0, false
	take := func() *slot { // nil when there is nothing more to run
		mu.Lock()
		defer mu.Unlock()
		for !failed && next < len(slots) && inFlight > 0 && inFlight+slots[next].ranks > maxRanksInFlight {
			room.Wait()
		}
		if failed || next == len(slots) {
			return nil
		}
		sl := &slots[next]
		next++
		inFlight += sl.ranks
		return sl
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < min(width, len(slots)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := take(); sl != nil; sl = take() {
				ro := o
				switch {
				case f.OwnObs:
					ro.Obs = obs.New()
				case o.Obs != nil:
					// The harness binds a registry's clock to its run's
					// engine, so every run records into a registry of its own.
					sl.reg = obs.New()
					sl.reg.SetSpanLimit(0)
					ro.Obs = sl.reg
				}
				sl.cells, sl.err = pts[sl.pt].Measure(ro, baseSeed+int64(sl.rep))
				if sl.ranks >= 4096 {
					// A large run leaves a big heap behind: return it to
					// the OS before the next slot is taken, so paper-scale
					// sweeps stay within a laptop's RAM.  Run does not:
					// a forced collection restarts the GC pacer and the
					// goroutine stack-size estimate for the next job.
					debug.FreeOSMemory()
				}
				mu.Lock()
				inFlight -= sl.ranks
				failed = failed || sl.err != nil
				room.Broadcast()
				mu.Unlock()
				close(sl.done)
			}
		}()
	}
	k := 0
	for i, pt := range pts {
		var cells []Cell
		var samples []stats.Sample
		for ; k < len(slots) && slots[k].pt == i; k++ {
			sl := &slots[k]
			<-sl.done
			if sl.err != nil {
				return nil, fmt.Errorf("%s %s@%v: %w", f.ID, pt.Series, pt.X, sl.err)
			}
			o.Obs.Merge(sl.reg)
			if cells == nil {
				cells, samples = sl.cells, make([]stats.Sample, len(sl.cells))
			}
			for j, c := range sl.cells {
				samples[j].Add(c.V)
			}
			if o.Progress != nil {
				o.Progress(fmt.Sprintf("%s %s x=%v rep %d: %v", f.ID, pt.Series, pt.X, sl.rep, sl.cells))
			}
		}
		for j, c := range cells {
			tabs[c.Panel].AddSample(c.Series, c.X, &samples[j])
		}
		if pt.Derive != nil {
			c := pt.Derive(samples)
			tabs[c.Panel].Add(stats.Point{Series: c.Series, X: c.X, Mean: c.V, N: 1})
		}
	}
	return tabs, nil
}

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks process counts and volumes so the whole figure suite
	// runs in seconds (tests, `go test -bench`).
	Quick Scale = iota
	// Paper uses the paper's process counts and data sizes.
	Paper
)

// Options configure a figure reproduction.
type Options struct {
	Scale Scale
	Reps  int // repetitions (paper: 10); default 3
	// Progress, if non-nil, receives one line per completed run, in
	// table order.
	Progress func(string)
	// Fault, if non-nil, applies the fault spec to every job the figure
	// suite runs (plfsbench -fault).
	Fault *fault.Spec
	// Retry is the PLFS retry policy applied to every mount the harness
	// builds (plfsbench -retry).
	Retry plfs.RetryPolicy
	// Obs, if non-nil, collects the metrics of every job the figure
	// suite runs (plfsbench -metrics): one registry accumulates them
	// across the whole suite.  Figure.Run gives each run a registry of its own that
	// keeps no span records and merges it into Obs in table order.
	Obs *obs.Registry
	// Backend selects the simulated store for every job the figure suite
	// runs ("" or BackendPosix, or BackendObjfs; plfsbench -backend).
	Backend string
}

// Apply stamps the suite-wide flags onto a job: the one place -backend,
// -fault, -retry and -metrics reach a run.  A job keeps what it pins — a
// Backend, a Fault spec, a Retry policy with Attempts or an Obs registry
// of its own.
func (o Options) Apply(j Job) Job {
	if j.Backend == "" {
		j.Backend = o.Backend
	}
	if j.Fault == nil {
		j.Fault = o.Fault
	}
	if j.Opt.Retry.Attempts == 0 {
		j.Opt.Retry = o.Retry
	}
	if j.Obs == nil {
		j.Obs = o.Obs
	}
	return j
}

// pick returns quick at Quick scale and paper at Paper scale.
func pick[T any](o Options, quick, paper T) T {
	if o.Scale == Paper {
		return paper
	}
	return quick
}

// repsFor trims repetitions on the most expensive points so the paper-
// scale suite stays tractable.
func (o Options) repsFor(ranks int) int {
	r := o.Reps
	if o.Scale == Paper && ranks >= 1024 && r > 2 {
		return 2
	}
	return r
}

// cielo returns the Cielo-profile pfs config.
func (o Options) cielo() pfs.Config {
	c := pfs.Cielo()
	c.Nodes = pick(o, 64, c.Nodes) // quick: a small machine with Cielo's contention character
	return c
}

// n1Bytes returns the MPI-IO Test volume per rank.
func (o Options) n1Bytes() (total, op int64) {
	return pick(o, int64(4<<20), 50<<20), 50 << 10 // paper: 50 MB in 50 KB ops (§IV.C)
}

// n1Opt is the standard PLFS mount for N-1 workloads: subdirs spread
// across the volumes (Fig. 6).
func n1Opt(mode plfs.Mode, volumes int) plfs.Options {
	return plfs.Options{IndexMode: mode, NumSubdirs: 32, SpreadSubdirs: volumes > 1}
}

// nnOpt is the PLFS mount for N-N workloads: whole containers spread
// across volumes (§V technique 1).
func nnOpt(volumes int) plfs.Options {
	return plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4, SpreadContainers: volumes > 1}
}

// read takes one cell's value off a run of ranks ranks: f on panel p,
// under series s — the point's series when s is empty, the point's
// series with s appended when s starts with '-'.
type read struct {
	p int
	s string
	f func(r Report, ranks int) float64
}

func readOpen(r Report, _ int) float64   { return r.ReadOpen.Seconds() }
func readTime(r Report, _ int) float64   { return r.Read.Seconds() }
func writeOpen(r Report, _ int) float64  { return r.WriteOpen.Seconds() }
func writeClose(r Report, _ int) float64 { return r.WriteClose.Seconds() }
func readBW(r Report, n int) float64     { return r.ReadBW(n) / 1e6 }
func writeBW(r Report, n int) float64    { return r.WriteBW(n) / 1e6 }

// counter reads a counter of the run's registry, divided by div.
func counter(name string, div float64) func(Report, int) float64 {
	return func(r Report, _ int) float64 { return float64(r.Obs[0].Counter(name).Value()) / div }
}

// serviceCounter reads a counter of the run's service registry.
func serviceCounter(name string) func(Report, int) float64 {
	return func(r Report, _ int) float64 { return float64(r.Service.Counter(name).Value()) }
}

// take runs j with seed and reads its cells for (series, x).
func take(o Options, j Job, seed int64, series string, x float64, reads []read) ([]Cell, error) {
	j.Seed = seed
	r, err := Run(o.Apply(j))
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(reads))
	for i, rd := range reads {
		s := rd.s
		if s == "" || s[0] == '-' {
			s = series + s
		}
		cells[i] = Cell{Panel: rd.p, Series: s, X: x, V: rd.f(r, j.Ranks)}
	}
	return cells, nil
}

// grid is a point per (x, series) pair, x outermost: each run of a
// point runs a job mk builds for that run alone, so no state a job
// carries (a Step hook's, a service's) is shared between runs, and reads
// its cells off the report.
func grid(xs []int, series []string, mk func(x, s int) Job, reads ...read) []Point {
	var pts []Point
	for _, x := range xs {
		for s, name := range series {
			xf := float64(x)
			pts = append(pts, Point{Series: name, X: xf, Ranks: mk(x, s).Ranks, Measure: func(o Options, seed int64) ([]Cell, error) {
				return take(o, mk(x, s), seed, name, xf, reads)
			}})
		}
	}
	return pts
}

// extreme reads series' mean at its largest (or smallest) x on panel p.
func extreme(p int, series string, largest bool) func([]*stats.Table) float64 {
	return func(t []*stats.Table) float64 {
		found, x, mean := false, 0.0, 0.0
		for _, pt := range t[p].Points() {
			if pt.Series == series && (!found || (pt.X >= x) == largest) {
				found, x, mean = true, pt.X, pt.Mean
			}
		}
		return mean
	}
}

func last(p int, series string) func([]*stats.Table) float64  { return extreme(p, series, true) }
func first(p int, series string) func([]*stats.Table) float64 { return extreme(p, series, false) }

// ratio divides two headline readings (0 when the divisor is 0).
func ratio(num, den func([]*stats.Table) float64) func([]*stats.Table) float64 {
	return func(t []*stats.Table) float64 {
		if d := den(t); d != 0 {
			return num(t) / d
		}
		return 0
	}
}
