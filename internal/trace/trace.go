// Package trace records time series from a running simulation: a
// Recorder samples caller-supplied probes (queue lengths, bytes moved,
// cache hit ratios …) at a fixed virtual-time interval and renders the
// result as CSV.  It is how plfsrun -trace exposes where an experiment's
// time goes — which stage saturates, when the convoys form, how cache
// hit rates evolve through a run.
package trace

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"plfs/internal/sim"
)

// Errors reported by Recorder misuse.
var (
	// ErrStarted is returned by Start when the recorder is already armed,
	// and by Add/AddProbes after Start: a probe registered mid-run would
	// make earlier rows shorter than the header, corrupting the CSV.
	ErrStarted = errors.New("trace: recorder already started")
)

// Probe reads one instantaneous metric.
type Probe struct {
	Name string
	Fn   func() float64
}

// Recorder samples probes on a virtual-time schedule.
type Recorder struct {
	eng      *sim.Engine
	interval time.Duration
	probes   []Probe
	times    []sim.Time
	rows     [][]float64
	started  bool
}

// NewRecorder creates a recorder sampling every interval of virtual time.
func NewRecorder(eng *sim.Engine, interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Recorder{eng: eng, interval: interval}
}

// Add registers a probe.  All probes must be added before Start; a late
// registration returns ErrStarted and is not recorded.
func (r *Recorder) Add(name string, fn func() float64) error {
	if r.started {
		return ErrStarted
	}
	r.probes = append(r.probes, Probe{name, fn})
	return nil
}

// AddProbes registers a batch of probes (same contract as Add).
func (r *Recorder) AddProbes(ps []Probe) error {
	if r.started {
		return ErrStarted
	}
	r.probes = append(r.probes, ps...)
	return nil
}

// Start arms the sampler.  It must be called after the simulation's
// processes are spawned (the recorder stops itself once no processes
// remain, letting the event queue drain).  Starting an already-started
// recorder returns ErrStarted — a silent second arm would double the
// sampling rate and interleave duplicate rows.
func (r *Recorder) Start() error {
	if r.started {
		return ErrStarted
	}
	r.started = true
	r.sample()
	r.schedule()
	return nil
}

func (r *Recorder) schedule() {
	r.eng.After(r.interval, func() {
		if r.eng.Live() == 0 {
			return
		}
		r.sample()
		r.schedule()
	})
}

func (r *Recorder) sample() {
	r.times = append(r.times, r.eng.Now())
	row := make([]float64, len(r.probes))
	for i, p := range r.probes {
		row[i] = p.Fn()
	}
	r.rows = append(r.rows, row)
}

// Samples returns the number of recorded rows.
func (r *Recorder) Samples() int { return len(r.rows) }

// Series returns the recorded values of the named probe.
func (r *Recorder) Series(name string) []float64 {
	for i, p := range r.probes {
		if p.Name == name {
			out := make([]float64, len(r.rows))
			for j, row := range r.rows {
				out[j] = row[i]
			}
			return out
		}
	}
	return nil
}

// WriteCSV renders the samples: a header row, then one row per sample
// with the virtual time in seconds first.
func (r *Recorder) WriteCSV(w io.Writer) error {
	names := make([]string, 0, len(r.probes)+1)
	names = append(names, "t_seconds")
	for _, p := range r.probes {
		names = append(names, p.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(names, ",")); err != nil {
		return err
	}
	for i, row := range r.rows {
		cells := make([]string, 0, len(row)+1)
		cells = append(cells, fmt.Sprintf("%.6f", r.times[i].Seconds()))
		for _, v := range row {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
