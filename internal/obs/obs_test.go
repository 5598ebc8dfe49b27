package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a manually advanced clock.
type testClock struct{ now int64 }

func (c *testClock) clock() Clock { return func() int64 { return c.now } }

func newTestRegistry() (*Registry, *testClock) {
	c := &testClock{}
	r := New()
	r.SetClock(c.clock())
	return r, c
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	r.Gauge("g").Set(1.5)
	r.Gauge("g").Set(2.5)
	if got := r.Counter("a").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	snap := r.Snapshot()
	if snap.Counters["a"] != 5 || snap.Gauges["g"] != 2.5 {
		t.Errorf("snapshot mismatch: %+v", snap)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %v, want 0", q)
	}
	st := h.Stats()
	if st.Count != 0 || st.SumSeconds != 0 || st.P99Seconds != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	// Quantiles of a one-observation histogram must clamp to that value
	// exactly, at every q, including values below the first bucket bound
	// and in the overflow bucket.
	for _, v := range []time.Duration{0, time.Nanosecond, time.Microsecond,
		3 * time.Millisecond, 5 * time.Hour} {
		var h Histogram
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single %v: q%.2f = %v, want %v", v, q, got, v)
			}
		}
		if h.Max() != v || h.Sum() != v || h.Count() != 1 {
			t.Errorf("single %v: max/sum/count = %v/%v/%d", v, h.Max(), h.Sum(), h.Count())
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.ObserveNanos(-5)
	if h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative observation: max %v count %d", h.Max(), h.Count())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact powers of two land in the bucket they bound, one more nanosecond
	// moves to the next.
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {int64(time.Microsecond), 0},
		{int64(time.Microsecond) + 1, 1},
		{2 * int64(time.Microsecond), 1},
		{2*int64(time.Microsecond) + 1, 2},
		{4 * int64(time.Microsecond), 2},
		{1 << 62, histBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramPercentilesOrdered(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= h.Max()) {
		t.Errorf("quantiles out of order: p50 %v p95 %v p99 %v max %v", p50, p95, p99, h.Max())
	}
	// Bucket estimation is coarse (doubling buckets), but the median of a
	// uniform 1µs..1ms population must land within its population range
	// and the same power-of-two bucket as the true median.
	if p50 < 256*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v, want within (256µs, 1024µs] bucket of true median 500µs", p50)
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.SetClock(func() int64 { return 0 })
	r.SetSpanLimit(10)
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.Timer("x")()
	sp := r.StartSpan("root")
	if sp != nil {
		t.Fatal("nil registry returned non-nil span")
	}
	sp.Child("c").End()
	sp.End()
	if got := r.Spans(); got != nil {
		t.Errorf("nil registry spans = %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	if rows := r.Breakdown(); rows != nil {
		t.Errorf("nil registry breakdown = %v", rows)
	}
}

func TestSpanTreeAndBreakdown(t *testing.T) {
	r, c := newTestRegistry()
	open := r.StartSpan("open")
	c.now += 10
	agg := open.Child("aggregate")
	c.now += 5
	dec := agg.Child("decode")
	c.now += 7
	dec.End()
	mrg := agg.Child("merge")
	c.now += 3
	mrg.End()
	agg.End()
	open.End()

	rows := r.Breakdown()
	want := map[string]time.Duration{
		"open":                  25,
		"open/aggregate":        15,
		"open/aggregate/decode": 7,
		"open/aggregate/merge":  3,
	}
	if len(rows) != len(want) {
		t.Fatalf("breakdown rows = %d, want %d: %+v", len(rows), len(want), rows)
	}
	for _, row := range rows {
		if row.Total != want[row.Path] {
			t.Errorf("path %s total = %v, want %v", row.Path, row.Total, want[row.Path])
		}
	}
	// Parents sort before children.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Path >= rows[i].Path {
			t.Errorf("rows not sorted: %q then %q", rows[i-1].Path, rows[i].Path)
		}
	}
	// Span durations feed histograms too.
	if got := r.Histogram("span.decode").Max(); got != 7 {
		t.Errorf("span.decode hist max = %v, want 7", got)
	}
	txt := RenderBreakdown(rows)
	if !strings.Contains(txt, "decode") || !strings.Contains(txt, "open") {
		t.Errorf("rendered breakdown missing rows:\n%s", txt)
	}
}

func TestSpanLimitDropsButStillCounts(t *testing.T) {
	r, c := newTestRegistry()
	r.SetSpanLimit(2)
	for i := 0; i < 5; i++ {
		sp := r.StartSpan("op")
		c.now += 100
		sp.End()
	}
	if got := len(r.Spans()); got != 2 {
		t.Errorf("retained spans = %d, want 2", got)
	}
	if got := r.Snapshot().SpansDropped; got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	if got := r.Histogram("span.op").Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5 (drops must still feed histograms)", got)
	}
}

func TestOrphanSpanTreatedAsRoot(t *testing.T) {
	r, c := newTestRegistry()
	r.SetSpanLimit(1)
	parent := r.StartSpan("parent")
	child := parent.Child("child")
	c.now += 4
	child.End()  // retained
	parent.End() // dropped (limit 1)
	rows := r.Breakdown()
	if len(rows) != 1 || rows[0].Path != "child" {
		t.Errorf("breakdown = %+v, want one root row 'child'", rows)
	}
}

func TestWriteJSONDeterministicAndValid(t *testing.T) {
	r, c := newTestRegistry()
	r.Counter("b.ops").Add(3)
	r.Counter("a.ops").Add(1)
	r.Gauge("z").Set(9)
	sp := r.StartSpan("op")
	c.now += 1e6
	sp.End()

	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("WriteJSON is not deterministic")
	}
	var snap Snapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counters["b.ops"] != 3 || snap.Histograms["span.op"].Count != 1 {
		t.Errorf("round-tripped snapshot wrong: %+v", snap)
	}
}

func TestWriteSpansCSV(t *testing.T) {
	r, c := newTestRegistry()
	root := r.StartSpan("root")
	c.now += 2e9
	root.End()
	var b bytes.Buffer
	if err := r.WriteSpansCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2:\n%s", len(lines), b.String())
	}
	if lines[0] != "name,id,parent,start_seconds,duration_seconds" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "root,") || !strings.Contains(lines[1], "2.000000000") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestConcurrentUse(t *testing.T) {
	// Counters, histograms, and spans from many goroutines; run under
	// -race in CI.
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("ops").Add(1)
				r.Histogram("lat").Observe(time.Microsecond)
				sp := r.StartSpan("op")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != 1600 {
		t.Errorf("ops = %d, want 1600", got)
	}
	if got := len(r.Spans()); got != 3200 {
		t.Errorf("spans = %d, want 3200", got)
	}
}

// BenchmarkDisabled measures the no-op fast path: instrumented code with
// observability off must cost only nil checks (the ≤2% overhead budget;
// see DESIGN.md §11).
func BenchmarkDisabled(b *testing.B) {
	var r *Registry
	b.Run("span", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := r.StartSpan("op")
			sp.Child("inner").End()
			sp.End()
		}
	})
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Counter("ops").Add(1)
		}
	})
	b.Run("timer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Timer("op")()
		}
	})
}

// BenchmarkEnabled is the paired cost with observability on.
func BenchmarkEnabled(b *testing.B) {
	r := New()
	r.SetSpanLimit(0) // steady state: histograms only
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp := r.StartSpan("op")
			sp.Child("inner").End()
			sp.End()
		}
	})
	b.Run("counter", func(b *testing.B) {
		c := r.Counter("ops")
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
}

// TestMergeMatchesOneRegistry records a sequence of observations into one
// registry, and split at every point over two registries merged
// afterwards: the merged Snapshot JSON must equal the single registry's —
// counters summed, histograms (count, sum, min, max, p50/p95/p99)
// combined, the later registry's gauges winning, dropped spans summed.
func TestMergeMatchesOneRegistry(t *testing.T) {
	type op func(r *Registry)
	var ops []op
	for i := 0; i < 60; i++ {
		i := i
		name := []string{"a", "b", "c"}[i%3]
		switch i % 5 {
		case 0:
			ops = append(ops, func(r *Registry) { r.Counter("n." + name).Add(int64(i)) })
		case 1:
			// Spread over many buckets, the overflow bucket included.
			ops = append(ops, func(r *Registry) { r.Histogram("h." + name).ObserveNanos(int64(i*i*i) << uint(i%32)) })
		case 2:
			ops = append(ops, func(r *Registry) { r.Gauge("g." + name).Set(float64(i) / 7) })
		case 3:
			ops = append(ops, func(r *Registry) { r.StartSpan("s." + name).End() })
		default:
			// Created but never recorded into.
			ops = append(ops, func(r *Registry) { r.Counter("zero." + name); r.Histogram("empty." + name) })
		}
	}
	snap := func(r *Registry) string {
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	newReg := func() *Registry {
		r := New()
		r.SetClock(func() int64 { return 5 })
		r.SetSpanLimit(0)
		return r
	}
	one := newReg()
	for _, o := range ops {
		o(one)
	}
	want := snap(one)
	for split := 0; split <= len(ops); split++ {
		a, b := newReg(), newReg()
		for k, o := range ops {
			if k < split {
				o(a)
			} else {
				o(b)
			}
		}
		a.Merge(b)
		if got := snap(a); got != want {
			t.Fatalf("split at %d: merged snapshot differs\ngot:\n%s\nwant:\n%s", split, got, want)
		}
	}
	var nilReg *Registry
	nilReg.Merge(one)
	one.Merge(nil)
	if got := snap(one); got != want {
		t.Fatalf("merging nil changed the registry")
	}
}
