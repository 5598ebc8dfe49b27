package sim

import (
	"testing"
	"time"
)

// The benchmarks time Engine.Run over a model of b.N operations and report
// events/s: every queued event counts, whether it resumes a process or
// runs a callback.  benchProcs is the rank count of the repository's
// headline simulated workload.
const benchProcs = 2048

// share is process i's part of n operations split over benchProcs.
func share(n, i int) int {
	if i < n%benchProcs {
		return n/benchProcs + 1
	}
	return n / benchProcs
}

// runBench runs the model; what the caller did since its last ResetTimer
// is timed with it.
func runBench(b *testing.B, e *Engine) {
	b.Helper()
	b.ReportAllocs()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkPark: many processes sleeping staggered intervals, so nearly
// every event resumes a process other than the one that just parked.
func BenchmarkPark(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < benchProcs; i++ {
		d := time.Duration(i%7+1) * time.Microsecond
		sleeps := share(b.N, i)
		e.Spawn("p", func(p *Proc) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	runBench(b, e)
}

// BenchmarkParkLane is BenchmarkPark with every sleep the same fixed
// latency, registered as a lane, the shape of a network's per-message
// latency: every event skips the heap.
func BenchmarkParkLane(b *testing.B) {
	const d = 2 * time.Microsecond
	e := NewEngine(1)
	e.Lane(d)
	for i := 0; i < benchProcs; i++ {
		sleeps := share(b.N, i)
		e.Spawn("p", func(p *Proc) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(d)
			}
		})
	}
	b.ResetTimer()
	runBench(b, e)
}

// BenchmarkSelfWake: one process sleeping alone, so every event resumes
// the process that scheduled it.
func BenchmarkSelfWake(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for k := 0; k < b.N; k++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	runBench(b, e)
}

// BenchmarkResourceUse: processes queueing on a 4-server resource, the
// shape of a metadata server under a create storm.
func BenchmarkResourceUse(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, 4)
	for i := 0; i < benchProcs; i++ {
		uses := share(b.N, i)
		e.Spawn("p", func(p *Proc) {
			for k := 0; k < uses; k++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	runBench(b, e)
}

// BenchmarkSpawn: spawn a process and run it to exit.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.Spawn("p", func(*Proc) {})
	}
	runBench(b, e)
}

// BenchmarkMailbox: pairs of processes passing messages, each on a fresh
// key as in a collective's rounds; every other message finds its receiver
// blocked on the key, the rest wait queued for the receive.
func BenchmarkMailbox(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < benchProcs; i += 2 {
		msgs := share(b.N, i) + share(b.N, i+1)
		box := NewMailbox()
		e.Spawn("recv", func(p *Proc) {
			for k := 0; k < msgs; k++ {
				if k%2 == 1 {
					p.Yield() // let the sender queue message k first
				}
				box.Get(p, i, k)
			}
		})
		e.Spawn("send", func(p *Proc) {
			for k := 0; k < msgs; k++ {
				box.Put(Msg{Src: i, Tag: k})
				p.Yield()
			}
		})
	}
	b.ResetTimer()
	runBench(b, e)
}

// BenchmarkPSLinkAsync: processes each driving async flows over one
// shared link and waiting for them, the shape of the storage network
// under a checkpoint.
func BenchmarkPSLinkAsync(b *testing.B) {
	e := NewEngine(1)
	l := NewPSLink(e, "net", 1e9)
	for i := 0; i < benchProcs; i++ {
		flows := share(b.N, i)
		size := int64(64<<10 + i%7)
		e.Spawn("p", func(p *Proc) {
			var wg WaitGroup
			done := wg.Done
			for k := 0; k < flows; k++ {
				wg.Add(1)
				l.TransferAsync(size, done)
				wg.Wait(p)
			}
		})
	}
	b.ResetTimer()
	runBench(b, e)
}
