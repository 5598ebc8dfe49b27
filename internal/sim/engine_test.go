package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(15 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestEventOrderingIsFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var g Gate
	e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestPanicPropagation(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Proc) { panic("kaboom") })
	if err := e.Run(); err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

// TestRunLeavesNoGoroutines: however Run returns, the processes it leaves
// behind are unwound (their deferred calls run) and their goroutines exit.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const stuck = 64
	models := []struct {
		name  string
		build func(e *Engine, unwound *int)
	}{
		{"deadlock", func(e *Engine, unwound *int) {
			var g Gate
			for i := 0; i < stuck; i++ {
				e.Spawn("stuck", func(p *Proc) {
					defer func() { *unwound++ }()
					g.Wait(p)
				})
			}
		}},
		{"panic", func(e *Engine, unwound *int) {
			var g Gate
			for i := 0; i < stuck; i++ {
				e.Spawn("stuck", func(p *Proc) {
					defer func() { *unwound++ }()
					defer p.Sleep(time.Second) // a deferred park must unwind too
					g.Wait(p)
				})
			}
			e.Spawn("boom", func(p *Proc) {
				p.Sleep(time.Millisecond)
				e.Spawn("late", func(*Proc) { t.Error("ran a process whose start was still queued at the panic") })
				panic("kaboom")
			})
		}},
	}
	for _, model := range models {
		t.Run(model.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e, unwound := NewEngine(1), 0
			model.build(e, &unwound)
			if err := e.Run(); err == nil {
				t.Fatal("expected an error")
			}
			if unwound != stuck || e.Live() != 0 {
				t.Errorf("%d of %d stuck processes ran their deferred calls; %d still live", unwound, stuck, e.Live())
			}
			// An exiting coroutine hands control back before its goroutine
			// is gone, so allow the count a moment to settle.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Run, %d before", n, base)
			}
		})
	}
}

// TestEventQueueOrder is a property test: random (t, seq) pushes
// interleaved with pops come out of the heap in exactly sorted order.
func TestEventQueueOrder(t *testing.T) {
	less := func(a, b event) bool { return a.before(b) }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var model []event // what q holds, kept sorted
		seq := uint64(0)
		for step := 0; step < 2000; step++ {
			if len(model) > 0 && rng.Intn(3) == 0 {
				got := q.pop()
				if got.t != model[0].t || got.seq != model[0].seq {
					t.Logf("seed %d step %d: popped (%d,%d), want (%d,%d)", seed, step, got.t, got.seq, model[0].t, model[0].seq)
					return false
				}
				model = model[1:]
				continue
			}
			seq++
			ev := event{t: Time(rng.Intn(50)), seq: seq} // few distinct times: ties are the rule
			q.push(ev)
			i := sort.Search(len(model), func(i int) bool { return less(ev, model[i]) })
			model = append(model[:i], append([]event{ev}, model[i:]...)...)
		}
		for _, want := range model {
			if got := q.pop(); got.t != want.t || got.seq != want.seq {
				t.Logf("seed %d drain: popped (%d,%d), want (%d,%d)", seed, got.t, got.seq, want.t, want.seq)
				return false
			}
		}
		return len(q) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCallbacksAndWake(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("w", func(p *Proc) {
		var g Gate
		e.After(7*time.Millisecond, func() { g.OpenAll() })
		g.Wait(p)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(7*time.Millisecond) {
		t.Fatalf("woke = %v, want 7ms", woke)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range finish {
		want := Time((i + 1) * int(10*time.Millisecond))
		if f != want {
			t.Fatalf("finish[%d] = %v, want %v", i, f, want)
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var last Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			last = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs, 2 servers, 10ms each -> 20ms makespan.
	if last != Time(20*time.Millisecond) {
		t.Fatalf("makespan = %v, want 20ms", last)
	}
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine(1)
	m := NewMutex(e)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // stagger arrivals
			m.Lock(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			m.Unlock()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("lock order = %v, want FIFO", order)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	var wg WaitGroup
	wg.Add(3)
	var done Time
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != Time(3*time.Millisecond) {
		t.Fatalf("waiter woke at %v, want 3ms", done)
	}
}

func TestPSLinkSingleFlow(t *testing.T) {
	e := NewEngine(1)
	l := NewPSLink(e, "net", 1e9) // 1 GB/s
	var took Time
	e.Spawn("f", func(p *Proc) {
		start := p.Now()
		l.Transfer(p, 500e6)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := took.Seconds(), 0.5; math.Abs(got-want) > 1e-3 {
		t.Fatalf("500MB over 1GB/s took %.4fs, want %.4fs", got, want)
	}
}

func TestPSLinkFairShare(t *testing.T) {
	// Two equal flows sharing the link should each take twice as long.
	e := NewEngine(1)
	l := NewPSLink(e, "net", 1e9)
	var done [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn(fmt.Sprintf("f%d", i), func(p *Proc) {
			l.Transfer(p, 500e6)
			done[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if got := d.Seconds(); math.Abs(got-1.0) > 1e-3 {
			t.Fatalf("flow %d finished at %.4fs, want 1.0s", i, got)
		}
	}
}

func TestPSLinkLateArrivalSlowsEarlyFlow(t *testing.T) {
	// Flow A (1GB) starts alone; flow B (250MB) joins at t=0.5s.
	// A serves 500MB alone, then shares: remaining 500MB of A and 250MB of
	// B at 500MB/s each.  B finishes at 0.5+0.5=1.0s; A at 0.5+0.5+0.25/1
	// ... worked out: after B departs at t=1.0s (having gotten 250MB), A has
	// 250MB left at full rate -> finishes t=1.25s.
	e := NewEngine(1)
	l := NewPSLink(e, "net", 1e9)
	var aDone, bDone Time
	e.Spawn("a", func(p *Proc) {
		l.Transfer(p, 1000e6)
		aDone = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		l.Transfer(p, 250e6)
		bDone = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := bDone.Seconds(); math.Abs(got-1.0) > 1e-3 {
		t.Fatalf("b finished at %.4fs, want 1.0s", got)
	}
	if got := aDone.Seconds(); math.Abs(got-1.25) > 1e-3 {
		t.Fatalf("a finished at %.4fs, want 1.25s", got)
	}
}

func TestPSLinkAsync(t *testing.T) {
	e := NewEngine(1)
	l1 := NewPSLink(e, "net", 1e9)
	l2 := NewPSLink(e, "disk", 0.5e9)
	var took Time
	e.Spawn("f", func(p *Proc) {
		// A pipelined transfer across two links costs max(t1, t2).
		var wg WaitGroup
		wg.Add(2)
		l1.TransferAsync(400e6, wg.Done)
		l2.TransferAsync(400e6, wg.Done)
		wg.Wait(p)
		took = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := took.Seconds(); math.Abs(got-0.8) > 1e-3 {
		t.Fatalf("pipelined transfer took %.4fs, want 0.8s", got)
	}
}

// TestPSLinkWorkConservation is a property test: for random flow sets, the
// link must finish all work no earlier than total/capacity and, when flows
// all start at t=0, exactly at total/capacity (the link is work-conserving
// while busy).
func TestPSLinkWorkConservation(t *testing.T) {
	f := func(sizes []uint32, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		e := NewEngine(seed)
		l := NewPSLink(e, "net", 1e8)
		var total int64
		var last Time
		for _, s := range sizes {
			sz := int64(s%10_000_000) + 1
			total += sz
			e.Spawn("f", func(p *Proc) {
				l.Transfer(p, sz)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := float64(total) / 1e8
		got := last.Seconds()
		return math.Abs(got-want) < want*1e-6+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxMatching(t *testing.T) {
	e := NewEngine(1)
	b := NewMailbox()
	var got []int
	e.Spawn("recv", func(p *Proc) {
		m := b.Get(p, 2, 7) // blocks: message not yet sent
		got = append(got, m.Tag)
		m = b.Get(p, 1, 5) // already queued by then
		got = append(got, m.Tag)
	})
	e.Spawn("send", func(p *Proc) {
		b.Put(Msg{Src: 1, Tag: 5})
		p.Sleep(time.Millisecond)
		b.Put(Msg{Src: 2, Tag: 7})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("got = %v, want [7 5]", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		l := NewPSLink(e, "net", 1e9)
		r := NewResource(e, 2)
		res := make([]Time, 8)
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(e.Jitter(time.Millisecond, 0.5))
				r.Use(p, e.Jitter(2*time.Millisecond, 0.2))
				l.Transfer(p, int64(1e6*(i+1)))
				res[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered traces")
	}
}

func TestJitterBounds(t *testing.T) {
	e := NewEngine(9)
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := e.Jitter(d, 0.1)
		if j < 90*time.Millisecond || j > 110*time.Millisecond {
			t.Fatalf("jitter %v out of ±10%% bounds", j)
		}
	}
	if e.Jitter(d, 0) != d {
		t.Fatal("zero-fraction jitter must be identity")
	}
}

// TestResourceLargeQueueFIFO pushes enough waiters through a single-server
// resource to exercise the head-indexed queue compaction, checking strict
// FIFO order throughout.
func TestResourceLargeQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	const n = 5000
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Nanosecond) // deterministic arrival order
			r.Use(p, time.Microsecond)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("served %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; FIFO violated", i, v)
		}
	}
}

// TestGateInterleavedOpenWait exercises Open/Wait interleavings around the
// head-indexed queue.
func TestGateInterleavedOpenWait(t *testing.T) {
	e := NewEngine(1)
	var g Gate
	served := 0
	for i := 0; i < 100; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			g.Wait(p)
			served++
		})
	}
	e.Spawn("opener", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for g.Open() {
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 100 || g.Waiting() != 0 {
		t.Fatalf("served %d, waiting %d", served, g.Waiting())
	}
}
