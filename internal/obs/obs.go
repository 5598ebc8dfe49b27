// Package obs is the zero-dependency observability layer: a metrics
// registry (counters, gauges, fixed-bucket latency histograms with
// percentile estimation) plus hierarchical span tracing.  It is the
// substrate that makes every reproduced shape attributable to its
// mechanism — where the harness samples resource time series on a
// fixed schedule (plfsrun -trace), obs attributes time to *operations*: each open,
// aggregate, decode, merge, flush, or commit is bracketed and its
// duration binned.
//
// Time semantics: a Registry reads "now" through a single Clock.  Under
// the simulator the harness binds it to the engine's virtual clock, so
// span durations and latency histograms report simulated time — the
// quantity the figures plot.  Over a real backend (osfs, the CLIs) the
// default wall clock applies.  Counters and gauges are clock-free.
//
// Disabled fast path: a nil *Registry is fully usable.  Every method is
// nil-safe and returns immediately, spans come back as nil *Span whose
// methods are also nil-safe, and no allocation happens anywhere on the
// path.  Instrumented hot paths therefore cost a pointer test when
// observability is off.
//
// Span retention is bounded (SetSpanLimit): beyond the limit, completed
// spans still feed their duration histograms but the per-span records
// are dropped and counted in the snapshot's spans_dropped — sampling
// that keeps long runs from accumulating unbounded span memory.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock reads the registry's notion of "now" in nanoseconds.  The origin
// is arbitrary; only differences are used.
type Clock func() int64

const (
	// histBase is the upper bound of the first histogram bucket (values
	// at or below it land in bucket 0).
	histBase = int64(time.Microsecond)
	// histBuckets is the number of doubling buckets after the first;
	// the last regular bucket tops out at 1µs << 33 ≈ 2.4 h, and
	// anything beyond lands in the overflow bucket.
	histBuckets = 34
	// DefaultSpanLimit bounds retained span records per registry.
	DefaultSpanLimit = 1 << 16
)

// Registry holds one run's metrics and spans.  All methods are safe for
// concurrent use, and all are no-ops on a nil receiver.
type Registry struct {
	clock atomic.Value // Clock

	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	spans     []SpanRecord
	spanLimit int
	dropped   int64
	lastID    uint64
}

// New returns an empty registry reading the wall clock.  Bind a virtual
// clock with SetClock before the run when simulated time is wanted.
func New() *Registry {
	r := &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		spanLimit: DefaultSpanLimit,
	}
	r.clock.Store(Clock(func() int64 { return time.Now().UnixNano() }))
	return r
}

// SetClock rebinds the registry's time source (e.g. to a simulation
// engine's virtual clock).  Call it before instrumented work begins;
// spans already in flight keep their old start times.
func (r *Registry) SetClock(c Clock) {
	if r == nil || c == nil {
		return
	}
	r.clock.Store(c)
}

// SetSpanLimit bounds the number of retained span records (0 or negative
// keeps none; histograms still accumulate).
func (r *Registry) SetSpanLimit(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spanLimit = n
	r.mu.Unlock()
}

func (r *Registry) now() int64 { return r.clock.Load().(Clock)() }

// Counter returns the named monotone counter, creating it on first use.
// Returns nil (a usable no-op) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.  Returns nil
// (a usable no-op) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.  Returns nil (a usable no-op) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

var nop = func() {}

// Timer starts timing an operation; the returned stop function records
// the elapsed time into the named histogram.  On a nil registry the
// shared no-op function is returned (no allocation).
func (r *Registry) Timer(name string) func() {
	if r == nil {
		return nop
	}
	start := r.now()
	return func() { r.Histogram(name).ObserveNanos(r.now() - start) }
}

// Merge folds src's metrics into r as if src's observations had been
// recorded into r after r's own: counters add, histograms combine their
// buckets, counts, sums and extremes, and src's gauges overwrite r's.
// Span records are not carried over; they count as dropped.  src must
// not be recording while it is merged.  Nil-safe on either side.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters, gauges, hists := maps.Clone(src.counters), maps.Clone(src.gauges), maps.Clone(src.hists)
	dropped := src.dropped + int64(len(src.spans))
	src.mu.Unlock()
	for k, c := range counters {
		r.Counter(k).Add(c.Value())
	}
	for k, g := range gauges {
		r.Gauge(k).Set(g.Value())
	}
	for k, h := range hists {
		r.Histogram(k).merge(h)
	}
	r.mu.Lock()
	r.dropped += dropped
	r.mu.Unlock()
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (nil-safe).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (nil-safe).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records the gauge's current value (nil-safe).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last value set (nil-safe).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram bins durations into fixed log-spaced buckets: bucket 0 holds
// values ≤ 1µs, each following bucket doubles the upper bound, and an
// overflow bucket catches the rest.  Percentiles interpolate within the
// crossing bucket and clamp to the observed min/max, so single-value
// histograms report that value exactly.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets + 1]int64
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v <= histBase {
		return 0
	}
	b := bits.Len64(uint64((v - 1) / histBase))
	if b > histBuckets {
		return histBuckets
	}
	return b
}

// bucketBounds returns bucket i's (lower, upper] nanosecond bounds; the
// overflow bucket's upper bound is its lower bound (callers clamp to the
// observed max).
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, histBase
	}
	if i >= histBuckets {
		lo = histBase << (histBuckets - 1)
		return lo, lo
	}
	return histBase << (i - 1), histBase << i
}

// Observe records one duration (nil-safe).
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds (nil-safe).
// Negative values clamp to zero.
func (h *Histogram) ObserveNanos(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// merge adds src's observations to h.
func (h *Histogram) merge(src *Histogram) {
	src.mu.Lock()
	count, sum, lo, hi, buckets := src.count, src.sum, src.min, src.max, src.buckets
	src.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || lo < h.min {
		h.min = lo
	}
	h.max = max(h.max, hi)
	h.count += count
	h.sum += sum
	for i, n := range buckets {
		h.buckets[i] += n
	}
	h.mu.Unlock()
}

// Count returns the number of observations (nil-safe).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total observed time (nil-safe).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.sum)
}

// Max returns the largest observation (nil-safe).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the buckets:
// linear interpolation inside the crossing bucket, clamped to the
// observed min/max.  An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.quantileLocked(q))
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			v := int64(float64(lo) + frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// HistogramStats is one histogram's snapshot, in seconds.
type HistogramStats struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// SumSeconds is the total observed time.
	SumSeconds float64 `json:"sum_seconds"`
	// MinSeconds and MaxSeconds bound the observations.
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	// P50Seconds, P95Seconds, P99Seconds are bucket-estimated quantiles.
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// Stats snapshots the histogram (nil-safe: zero stats).
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	return HistogramStats{
		Count:      h.count,
		SumSeconds: sec(h.sum),
		MinSeconds: sec(h.min),
		MaxSeconds: sec(h.max),
		P50Seconds: sec(h.quantileLocked(0.50)),
		P95Seconds: sec(h.quantileLocked(0.95)),
		P99Seconds: sec(h.quantileLocked(0.99)),
	}
}

// Snapshot is a registry's full metrics state, JSON-stable (map keys are
// marshaled sorted, so equal states produce byte-equal documents).
type Snapshot struct {
	// Counters maps counter name to its count.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to its last value.
	Gauges map[string]float64 `json:"gauges"`
	// Histograms maps histogram name to its summary stats.
	Histograms map[string]HistogramStats `json:"histograms"`
	// SpansDropped counts span records lost to the retention limit.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// Snapshot captures the registry's current metrics (nil-safe: empty
// snapshot with non-nil maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	s.SpansDropped = r.dropped
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.  Output is
// deterministic for a deterministic run (virtual clock, fixed seed).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// SpanRecord is one completed span.
type SpanRecord struct {
	// Name is the span's operation name (e.g. "open", "decode").
	Name string
	// ID is unique within the registry; Parent is the enclosing span's
	// ID (0 for a root span).
	ID, Parent uint64
	// Start and End are clock readings in nanoseconds.
	Start, End int64
}

// Spans returns a copy of the retained span records in completion order
// (nil-safe).
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}

// WriteSpansCSV renders the retained spans: one row per span with its
// name, id, parent id, start, and duration in seconds.
func (r *Registry) WriteSpansCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,id,parent,start_seconds,duration_seconds"); err != nil {
		return err
	}
	for _, s := range r.Spans() {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.9f,%.9f\n",
			s.Name, s.ID, s.Parent, float64(s.Start)/1e9, float64(s.End-s.Start)/1e9); err != nil {
			return err
		}
	}
	return nil
}

// BreakdownRow aggregates every span sharing one ancestry path.
type BreakdownRow struct {
	// Path is the slash-joined span ancestry, e.g. "open/aggregate/decode".
	Path string
	// Depth is the nesting level (0 for roots) — Path's separator count.
	Depth int
	// Count is the number of spans on this path.
	Count int64
	// Total sums their durations; Max is the longest single span —
	// for collective phases entered by every rank, Max approximates the
	// job-critical-path time while Total/Count is the per-rank mean.
	Total, Max time.Duration
}

// Breakdown aggregates retained spans by ancestry path, sorted so each
// parent precedes its children (lexicographic on path).  A span whose
// parent record was dropped by the retention limit is treated as a root.
func (r *Registry) Breakdown() []BreakdownRow {
	spans := r.Spans()
	if len(spans) == 0 {
		return nil
	}
	byID := make(map[uint64]*SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	paths := make(map[uint64]string, len(spans))
	var pathOf func(s *SpanRecord) string
	pathOf = func(s *SpanRecord) string {
		if p, ok := paths[s.ID]; ok {
			return p
		}
		p := s.Name
		if par, ok := byID[s.Parent]; ok && s.Parent != 0 {
			p = pathOf(par) + "/" + s.Name
		}
		paths[s.ID] = p
		return p
	}
	rows := map[string]*BreakdownRow{}
	for i := range spans {
		s := &spans[i]
		p := pathOf(s)
		row, ok := rows[p]
		if !ok {
			row = &BreakdownRow{Path: p, Depth: strings.Count(p, "/")}
			rows[p] = row
		}
		d := time.Duration(s.End - s.Start)
		row.Count++
		row.Total += d
		if d > row.Max {
			row.Max = d
		}
	}
	out := make([]BreakdownRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// RenderBreakdown formats the breakdown as an indented text table:
// one line per path with span count, total, mean, and max durations.
func RenderBreakdown(rows []BreakdownRow) string {
	if len(rows) == 0 {
		return "(no spans recorded)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %8s %12s %12s %12s\n", "phase", "count", "total", "mean", "max")
	for _, row := range rows {
		name := strings.Repeat("  ", row.Depth) + row.Path[strings.LastIndex(row.Path, "/")+1:]
		mean := time.Duration(0)
		if row.Count > 0 {
			mean = row.Total / time.Duration(row.Count)
		}
		fmt.Fprintf(&b, "%-42s %8d %12.6fs %12.6fs %12.6fs\n",
			name, row.Count, row.Total.Seconds(), mean.Seconds(), row.Max.Seconds())
	}
	return b.String()
}
