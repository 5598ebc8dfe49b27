package trace

import (
	"strings"
	"testing"
	"time"

	"plfs/internal/sim"
)

func TestRecorderSamplesAndStops(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRecorder(eng, 10*time.Millisecond)
	counter := 0.0
	r.Add("work", func() float64 { return counter })
	eng.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * time.Millisecond)
			counter++
		}
	})
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err) // the recorder must not deadlock or spin forever
	}
	if r.Samples() < 10 || r.Samples() > 13 {
		t.Fatalf("samples = %d, want ~11", r.Samples())
	}
	series := r.Series("work")
	if series[0] != 0 || series[len(series)-1] < 9 {
		t.Fatalf("series = %v", series)
	}
	if r.Series("nope") != nil {
		t.Fatal("unknown series returned data")
	}
}

func TestWriteCSV(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRecorder(eng, time.Millisecond)
	r.Add("x", func() float64 { return 42 })
	eng.Spawn("p", func(p *sim.Proc) { p.Sleep(3 * time.Millisecond) })
	r.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "t_seconds,x\n") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, ",42\n") {
		t.Fatalf("csv missing samples: %q", out)
	}
}

func TestStartTwiceFails(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRecorder(eng, time.Millisecond)
	if err := r.Add("x", func() float64 { return 1 }); err != nil {
		t.Fatalf("Add before Start: %v", err)
	}
	eng.Spawn("p", func(p *sim.Proc) { p.Sleep(5 * time.Millisecond) })
	if err := r.Start(); err != nil {
		t.Fatalf("first Start: %v", err)
	}
	if err := r.Start(); err != ErrStarted {
		t.Fatalf("second Start = %v, want ErrStarted", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The rejected Start must not have armed a second sampling schedule.
	if r.Samples() < 5 || r.Samples() > 8 {
		t.Fatalf("samples = %d, want ~6 (double-Start would double it)", r.Samples())
	}
}

func TestAddAfterStartFails(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRecorder(eng, time.Millisecond)
	r.Add("x", func() float64 { return 1 })
	eng.Spawn("p", func(p *sim.Proc) { p.Sleep(2 * time.Millisecond) })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("late", func() float64 { return 2 }); err != ErrStarted {
		t.Fatalf("Add after Start = %v, want ErrStarted", err)
	}
	if err := r.AddProbes([]Probe{{"late2", func() float64 { return 3 }}}); err != ErrStarted {
		t.Fatalf("AddProbes after Start = %v, want ErrStarted", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The late probes must not appear in the output.
	if r.Series("late") != nil || r.Series("late2") != nil {
		t.Fatal("late probe was recorded despite ErrStarted")
	}
}
