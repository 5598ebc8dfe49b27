package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is the records of one -out file: complete sets of runs of one
// commit, any number of seeds.
type runSet []record

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set runSet
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		set = append(set, rec)
	}
	return set, sc.Err()
}

// values returns one metric's reading from every run of (workload, mode),
// keyed by seed; a seed run more than once keeps every reading.
func (s runSet) values(workload string, trace bool, metric string) (all []float64, bySeed map[int64][]float64) {
	bySeed = map[int64][]float64{}
	for _, rec := range s {
		if rec.Workload != workload || rec.Trace != trace {
			continue
		}
		for _, m := range rec.Metrics {
			if m.Name == metric && m.N > 0 {
				all = append(all, m.Value)
				bySeed[rec.Seed] = append(bySeed[rec.Seed], m.Value)
			}
		}
	}
	return all, bySeed
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// compareFiles judges set b against set a, one row per workload and
// metric, and returns how many rows are bad.
//
// End-to-end metrics get a verdict from their bound in BENCHMARK.json:
// worse or better when b's median differs from a's by more than the
// bound, unresolved when either set's quartile spread is wider than the
// bound (the sets cannot tell), within-bound otherwise.  Metrics that
// repeat exactly for a seed — virtual times, counts — must also be
// identical wherever both sets ran the same seed: differs.  Bad rows are
// worse, unresolved and differs, and any run with failed operations.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bad int, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return 0, err
	}
	for _, set := range []runSet{a, b} {
		for _, rec := range set {
			if rec.Failed > 0 {
				fmt.Fprintf(w, "FAILED  %s seed %d trace %t: %d of %d operations failed\n", rec.Workload, rec.Seed, rec.Trace, rec.Failed, rec.Attempted)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "%-16s %-38s %-8s %14s %14s %9s %8s  %s\n", "workload", "metric", "unit", "median a", "median b", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			for _, m := range spec.metrics(trace) {
				va, seedA := a.values(wl.Name, trace, m.Name)
				vb, seedB := b.values(wl.Name, trace, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				change := 0.0
				if ma != 0 {
					change = (mb - ma) / math.Abs(ma)
				}
				verdict := "-"
				if !trace {
					worse := change
					if m.Better == "higher" {
						worse = -change
					}
					switch {
					case spread(va) > m.Bound || spread(vb) > m.Bound:
						verdict = "unresolved"
					case worse > m.Bound:
						verdict = "worse"
					case worse < -m.Bound:
						verdict = "better"
					default:
						verdict = "within-bound"
					}
				}
				if isExact(wl.Name, m.Name, trace) && !sameBySeed(seedA, seedB) {
					verdict = "differs"
				}
				switch verdict {
				case "worse", "unresolved", "differs":
					bad++
				}
				bound := ""
				if !trace {
					bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
				}
				fmt.Fprintf(w, "%-16s %-38s %-8s %14.6g %14.6g %+8.2f%% %8s  %s\n", wl.Name, m.Name, m.Unit, ma, mb, 100*change, bound, verdict)
			}
		}
	}
	return bad, nil
}

// sameBySeed reports whether every seed both sets ran read the same in
// every run.
func sameBySeed(a, b map[int64][]float64) bool {
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok {
			continue
		}
		for _, x := range append(append([]float64(nil), va...), vb...) {
			if x != va[0] {
				return false
			}
		}
	}
	return true
}
