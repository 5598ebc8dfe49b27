package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecNames checks BENCHMARK.json against the contract's naming
// rules: every name well formed and used once.
func TestSpecNames(t *testing.T) {
	spec := loadTestSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if !isSim(w.Name) && w.Name != wlStream && w.Name != wlSmallRand {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
	for n := range exactLayer {
		if !seen[n] {
			t.Errorf("exactLayer names %q, which BENCHMARK.json does not list", n)
		}
	}
	for n := range exactOnSim {
		if !seen[n] {
			t.Errorf("exactOnSim names %q, which BENCHMARK.json does not list", n)
		}
	}
}

// TestSmoke runs all four workloads, traced and untraced, and every probe
// at toy sizes.  It asserts the JSON is honest: each run reports exactly
// the metrics BENCHMARK.json lists for its mode (runWorkload itself
// refuses a measured name the spec lacks), every end-to-end metric is
// measured and non-zero on every workload, and every per-layer metric is
// measured by at least one workload.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	env := runEnv{outDir: t.TempDir(), tmpDir: t.TempDir()}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(spec, w.Name, 1, 0, trace, toyScale, env)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct %t, %d of %d failed: %v", w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			want := spec.metrics(trace)
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for i, m := range res.Metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s trace=%t: metric %d is %s [%s], want %s [%s]", w.Name, trace, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
				if m.N > 0 {
					measured[m.Name] = true
				}
				if !trace && (m.N == 0 || m.Value == 0) {
					t.Errorf("%s: end-to-end metric %s is %v from %d samples", w.Name, m.Name, m.Value, m.N)
				}
			}
			// The line the driver reads: exactly four keys, every metric a
			// value and a unit.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s trace=%t: result line: %v", w.Name, trace, err)
			}
			if len(line) != 4 {
				t.Errorf("%s trace=%t: result line has %d keys", w.Name, trace, len(line))
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			}
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%t: result line has %d metrics, want %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit == nil {
					t.Errorf("%s trace=%t: result line lacks %s", w.Name, trace, m.Name)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(env.outDir, w.Name+".spans.csv")); err != nil {
					t.Errorf("%s: no spans written: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
	if left, _ := os.ReadDir(env.tmpDir); len(left) != 0 {
		t.Errorf("%d temp dirs left behind", len(left))
	}
}

// TestCorruptReadFails flips one written byte before the read-back is
// verified: the run must count a failed operation and report incorrect,
// which is what makes the command exit non-zero.
func TestCorruptReadFails(t *testing.T) {
	spec := loadTestSpec(t)
	env := runEnv{outDir: t.TempDir(), tmpDir: t.TempDir()}
	sc := toyScale
	sc.corruptRead = true
	for _, name := range []string{wlStream, wlSmallRand} {
		w := newWorkload(name, sc, env)
		if err := w.setup(1); err != nil {
			t.Fatal(err)
		}
		var out samples
		st := w.iterate(false, &out)
		w.close()
		if st.failed != 1 || st.err == nil {
			t.Errorf("%s: corrupt read-back: %d failed, err %v; want exactly the flipped op", name, st.failed, st.err)
		}
		res := &result{}
		res.note(st)
		if res.Failed == 0 {
			t.Errorf("%s: failure not counted", name)
		}
	}
	// A run whose warm-up already fails is refused outright.
	if _, err := runWorkload(spec, wlStream, 1, 0, false, sc, env); err == nil {
		t.Error("runWorkload accepted a corrupt read-back")
	}
}

// TestLayerTimes checks self time against child spans, overlapping
// (fanned-out) children counted once.
func TestLayerTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "plfs.reader.readat", id: 1, start: 0, end: 100},
		{name: "osfs.readat", id: 2, parent: 1, start: 10, end: 50},
		{name: "osfs.readat", id: 3, parent: 1, start: 30, end: 70}, // overlaps span 2
		{name: "localcomm.barrier", id: 4, parent: 1, start: 80, end: 90},
		{name: "plfs.writer.write", id: 5, start: 100, end: 120},
	}}
	got := tr.layerTimes()
	if got["plfs"] != 30+20 || got["osfs"] != 60 || got["localcomm"] != 10 {
		t.Errorf("layerTimes = %v, want plfs 50, osfs 60, localcomm 10", got)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompare drives -compare over two sets: identical sets pass; a
// median past the bound, a spread past the bound and an exact metric
// that moved each make a bad row.
func TestCompare(t *testing.T) {
	spec := loadTestSpec(t)
	dir := t.TempDir()
	write := func(file string, seedVals map[int64][2]float64) string {
		path := filepath.Join(dir, file)
		for seed, v := range seedVals {
			res := &result{Workload: wlN1Restart, Seed: seed, Correct: true, Attempted: 1}
			for _, m := range spec.EndToEnd {
				mv := metricValue{Name: m.Name, Unit: m.Unit, Value: 1, N: 1}
				switch m.Name {
				case "host_wall_s":
					mv.Value = v[0]
				case "open_s":
					mv.Value = v[1]
				}
				res.Metrics = append(res.Metrics, mv)
			}
			if err := appendRecord(path, header{Seed: seed}, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", map[int64][2]float64{1: {2.00, 0.5}, 2: {2.02, 0.5}, 3: {2.01, 0.5}})
	same := write("same.jsonl", map[int64][2]float64{1: {2.01, 0.5}, 2: {2.00, 0.5}, 3: {2.02, 0.5}})
	slow := write("slow.jsonl", map[int64][2]float64{1: {3.00, 0.5}, 2: {3.02, 0.5}, 3: {3.01, 0.5}})
	noisy := write("noisy.jsonl", map[int64][2]float64{1: {1.0, 0.5}, 2: {2.0, 0.5}, 3: {3.0, 0.5}})
	moved := write("moved.jsonl", map[int64][2]float64{1: {2.00, 0.5000001}, 2: {2.02, 0.5}, 3: {2.01, 0.5}})
	for _, c := range []struct {
		b       string
		bad     int
		verdict string
	}{
		{same, 0, "within-bound"}, {slow, 1, "worse"}, {noisy, 1, "unresolved"}, {moved, 1, "differs"},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, spec, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !bytes.Contains(out.Bytes(), []byte(c.verdict)) {
			t.Errorf("compare a %s: %d bad rows, want %d with a %q row:\n%s", filepath.Base(c.b), bad, c.bad, c.verdict, out.String())
		}
	}
}
