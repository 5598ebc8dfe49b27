package harness

import (
	"strings"
	"testing"
	"time"

	"plfs/internal/sim"
)

// TestTraceSamplesUntilLastExit: a trace samples at time zero and every
// interval after while a process lives, then stops, so the engine
// drains.
func TestTraceSamplesUntilLastExit(t *testing.T) {
	eng := sim.NewEngine(1)
	work := 0.0
	tr := startTrace(eng, 10*time.Millisecond, []probe{{"work", func() float64 { return work }}})
	eng.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * time.Millisecond)
			work++
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err) // the sampler must not deadlock or spin forever
	}
	if n := len(tr.rows); n < 10 || n > 11 {
		t.Fatalf("%d samples over 100 ms at 10 ms, want 10 or 11", n)
	}
	if first, last := tr.rows[0], tr.rows[len(tr.rows)-1]; first[0] != 0 || first[1] != 0 || last[1] < 9 {
		t.Fatalf("first sample %v, last %v", first, last)
	}
}

// TestTraceWriteCSV: a trace's CSV is a header row, then one row per
// sample with the virtual time first.
func TestTraceWriteCSV(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := startTrace(eng, time.Millisecond, []probe{{"x", func() float64 { return 42 }}})
	eng.Spawn("p", func(p *sim.Proc) { p.Sleep(3 * time.Millisecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tr.writeCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if lines[0] != "t_seconds,x" || lines[1] != "0.000000,42" || len(lines) != len(tr.rows)+1 {
		t.Fatalf("csv:\n%s", b.String())
	}
}
