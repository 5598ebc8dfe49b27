package harness

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunsAreValues runs figures with two repetitions per point on one
// worker and on four, and requires byte-identical tables.  Two
// repetitions of one point run side by side on four workers, so state a
// point's runs share (a Step hook's closure over one Job, as
// ablation-metadata's batched+rebalanced series once had) shows up here
// as a diff.  Under -race it also covers Figure.Run's worker pool.
func TestRunsAreValues(t *testing.T) {
	for _, id := range []string{"ablation-metadata", "fig4"} {
		f, ok := FindFigure(id)
		if !ok {
			t.Fatalf("%s not found", id)
		}
		csv := func(width int) string {
			tabs, err := f.run(Options{Scale: Quick, Reps: 2}, width)
			if err != nil {
				t.Fatalf("%s on %d workers: %v", id, width, err)
			}
			var b strings.Builder
			for _, tab := range tabs {
				b.WriteString(tab.CSV())
			}
			return b.String()
		}
		if serial, wide := csv(1), csv(4); serial != wide {
			t.Errorf("%s: tables differ between 1 and 4 workers\n1:\n%s\n4:\n%s", id, serial, wide)
		}
	}
}

// TestRunBoundsRanksInFlight runs points of assorted sizes on four
// workers and checks that the ranks of the runs in flight never exceed
// maxRanksInFlight, except for a larger run alone, and that the tables
// and a failure still come back in table order.
func TestRunBoundsRanksInFlight(t *testing.T) {
	var mu sync.Mutex
	inFlight, runs := 0, 0
	pointOf := func(ranks int, fail bool) Point {
		x := float64(ranks)
		return Point{Series: "s", X: x, Ranks: ranks, Measure: func(Options, int64) ([]Cell, error) {
			mu.Lock()
			inFlight += ranks
			runs++
			if inFlight > maxRanksInFlight && inFlight != ranks {
				t.Errorf("%d ranks in flight after admitting a %d-rank run", inFlight, ranks)
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			inFlight -= ranks
			mu.Unlock()
			if fail {
				return nil, errors.New("boom")
			}
			return []Cell{{0, "s", x, x}}, nil
		}}
	}
	sizes := []int{0, 100, 8192, 8192, 8192, 16384, 20000, 100, 4096, 65536, 0, 12000}
	f := Figure{ID: "bound", Panels: []Panel{{"bound", "ranks", "ranks"}}, Points: func(Options) (pts []Point) {
		for _, n := range sizes {
			pts = append(pts, pointOf(n, false))
		}
		return pts
	}}
	tabs, err := f.run(Options{Reps: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3*len(sizes) {
		t.Errorf("%d runs, want %d", runs, 3*len(sizes))
	}
	got := tabs[0].Points()
	if len(got) != len(sizes) {
		t.Fatalf("%d table points, want %d", len(got), len(sizes))
	}
	for i, p := range got {
		if p.X != float64(sizes[i]) || p.N != 3 {
			t.Errorf("table point %d = x %v over %d runs, want x %d over 3", i, p.X, p.N, sizes[i])
		}
	}

	f.Points = func(Options) []Point {
		return []Point{pointOf(20000, false), pointOf(100, false), pointOf(8192, true), pointOf(100, false)}
	}
	if _, err := f.run(Options{Reps: 3}, 4); err == nil || !strings.Contains(err.Error(), "bound s@8192: boom") {
		t.Errorf("err = %v, want the 8192-rank point's failure", err)
	}
}
