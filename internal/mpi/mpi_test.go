package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"plfs/internal/sim"
)

// runWorld spawns fn on every rank of a fresh world and runs the engine.
func runWorld(t *testing.T, n int, fn func(*Rank)) *sim.Engine {
	t.Helper()
	eng := sim.NewEngine(1)
	w := NewWorld(eng, n, 16, DefaultNet())
	w.SpawnAll(fn)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// worldSizes exercises non-trivial, non-power-of-two cases.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 33}

func TestSendRecv(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 5, 100, "hello")
		} else {
			m := r.Recv(0, 5)
			if m.Val.(string) != "hello" || m.Bytes != 100 {
				t.Errorf("got %+v", m)
			}
		}
	})
}

func TestSendRecvOrderingPerTag(t *testing.T) {
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 9, 8, i)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := r.Recv(0, 9).Val.(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var minAfter, maxBefore sim.Time = 1 << 62, -1
			runWorld(t, n, func(r *Rank) {
				// Stagger arrivals.
				r.Proc().Sleep(time.Duration(r.Rank()) * time.Millisecond)
				if now := r.Proc().Now(); now > maxBefore {
					maxBefore = now
				}
				r.Comm().Barrier()
				if now := r.Proc().Now(); now < minAfter {
					minAfter = now
				}
			})
			if minAfter < maxBefore {
				t.Fatalf("a rank left the barrier at %v before the last arrived at %v", minAfter, maxBefore)
			}
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root += 1 + n/3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				runWorld(t, n, func(r *Rank) {
					var v any
					if r.Rank() == root {
						v = "val"
					}
					if got := r.Comm().Bcast(root, 64, v); got.(string) != "val" {
						t.Errorf("rank %d got %v", r.Rank(), got)
					}
				})
			})
		}
	}
}

func TestGatherAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n / 2
			runWorld(t, n, func(r *Rank) {
				vals := r.Comm().Gather(root, 8, r.Rank()*3)
				if r.Rank() == root {
					if len(vals) != n {
						t.Errorf("gather len = %d", len(vals))
						return
					}
					for i, v := range vals {
						if v.(int) != i*3 {
							t.Errorf("gather[%d] = %v", i, v)
						}
					}
				} else if vals != nil {
					t.Errorf("non-root got %v", vals)
				}
			})
		})
	}
}

func TestScatterAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := (n - 1) / 2
			runWorld(t, n, func(r *Rank) {
				var vs []any
				if r.Rank() == root {
					vs = make([]any, n)
					for i := range vs {
						vs[i] = i * 7
					}
				}
				got := r.Comm().Scatter(root, 8, vs)
				if got.(int) != r.Rank()*7 {
					t.Errorf("rank %d scatter got %v", r.Rank(), got)
				}
			})
		})
	}
}

func TestAllgatherAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runWorld(t, n, func(r *Rank) {
				vals := r.Comm().Allgather(8, r.Rank()+100)
				for i, v := range vals {
					if v.(int) != i+100 {
						t.Errorf("allgather[%d] = %v at rank %d", i, v, r.Rank())
					}
				}
			})
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	sum := func(a, b any) any { return a.(int) + b.(int) }
	for _, n := range worldSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			want := n * (n - 1) / 2
			runWorld(t, n, func(r *Rank) {
				c := r.Comm()
				got := c.Reduce(0, 8, r.Rank(), sum)
				if r.Rank() == 0 && got.(int) != want {
					t.Errorf("reduce = %v, want %d", got, want)
				}
				all := c.Allreduce(8, r.Rank(), sum)
				if all.(int) != want {
					t.Errorf("allreduce = %v at rank %d", all, r.Rank())
				}
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	const n = 5
	runWorld(t, n, func(r *Rank) {
		vs := make([]any, n)
		nb := make([]int64, n)
		for i := range vs {
			vs[i] = r.Rank()*100 + i // value destined for rank i
			nb[i] = 16
		}
		got := r.Comm().Alltoall(nb, vs)
		for src, v := range got {
			if v.(int) != src*100+r.Rank() {
				t.Errorf("alltoall[%d] = %v at rank %d", src, v, r.Rank())
			}
		}
	})
}

func TestSplitAndSubCollectives(t *testing.T) {
	const n = 12
	runWorld(t, n, func(r *Rank) {
		c := r.Comm()
		sub := c.Split(r.Rank()%3, r.Rank())
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Group members share a color; gather world ranks at sub-root.
		vals := sub.Gather(0, 8, r.Rank())
		if sub.Rank() == 0 {
			for i, v := range vals {
				if v.(int)%3 != r.Rank()%3 {
					t.Errorf("member %d has wrong color: %v", i, v)
				}
			}
		}
		// The parent communicator still works after splitting.
		c.Barrier()
	})
}

func TestConsecutiveCollectivesNoCrosstalk(t *testing.T) {
	runWorld(t, 9, func(r *Rank) {
		c := r.Comm()
		for i := 0; i < 30; i++ {
			root := i % 9
			var v any
			if r.Rank() == root {
				v = i
			}
			if got := c.Bcast(root, 8, v); got.(int) != i {
				t.Errorf("iter %d got %v", i, got)
				return
			}
		}
	})
}

// TestBcastScalesLogarithmically checks the cost model: broadcasting to 4x
// the ranks must cost far less than 4x the time (binomial tree).
func TestBcastScalesLogarithmically(t *testing.T) {
	cost := func(n int) sim.Time {
		eng := sim.NewEngine(1)
		w := NewWorld(eng, n, 16, DefaultNet())
		w.SpawnAll(func(r *Rank) {
			var v any
			if r.Rank() == 0 {
				v = 1
			}
			r.Comm().Bcast(0, 1<<20, v)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	t64, t256 := cost(64), cost(256)
	if ratio := float64(t256) / float64(t64); ratio > 2.5 {
		t.Fatalf("bcast 256/64 cost ratio = %.2f, want logarithmic (<2.5)", ratio)
	}
}

// TestSameNodeTransfersCheaper checks that intra-node messages use memory
// bandwidth, not the NIC.
func TestSameNodeTransfersCheaper(t *testing.T) {
	cost := func(procsPerNode int) sim.Time {
		eng := sim.NewEngine(1)
		w := NewWorld(eng, 2, procsPerNode, NetConfig{NICBW: 1e9, Latency: time.Microsecond, MemBW: 100e9})
		w.Spawn(0, func(r *Rank) { r.Send(1, 1, 100<<20, nil) })
		w.Spawn(1, func(r *Rank) { r.Recv(0, 1) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	same := cost(2)  // both ranks on one node
	cross := cost(1) // one rank per node
	if same*10 > cross {
		t.Fatalf("same-node %v not much cheaper than cross-node %v", same, cross)
	}
}

func TestGatherVolumeGrowsUpTree(t *testing.T) {
	// Total NIC traffic for a gather should exceed n×nbytes (interior
	// forwarding) but stay well under n²×nbytes.
	const n, nb = 32, 1 << 10
	eng := sim.NewEngine(1)
	w := NewWorld(eng, n, 1, DefaultNet()) // 1 proc/node: all traffic on NICs
	w.SpawnAll(func(r *Rank) { r.Comm().Gather(0, nb, r.Rank()) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var moved int64
	for _, nic := range w.nics {
		moved += nic.Moved
	}
	moved /= 2 // counted at both sender and receiver NIC
	if moved < (n-1)*nb || moved > n*n*nb/2 {
		t.Fatalf("gather moved %d bytes, outside tree bounds", moved)
	}
}

// TestGatherScatterEveryRoot: the slices of contiguous relative ranks
// that Gather and Scatter carry map back to comm ranks from every root,
// and each message is charged nbytes per value it carries: a subtree of
// relative ranks [rel, rel+min(rel&-rel, n-rel)) goes up or down in one.
func TestGatherScatterEveryRoot(t *testing.T) {
	const n, nb = 13, 8
	var want int64 // bytes through the NICs, counted at both ends
	for rel := 1; rel < n; rel++ {
		want += 2 * int64(min(rel&-rel, n-rel)) * nb
	}
	for root := 0; root < n; root++ {
		eng := sim.NewEngine(1)
		w := NewWorld(eng, n, 1, DefaultNet())
		w.SpawnAll(func(r *Rank) {
			vals := r.Comm().Gather(root, nb, r.Rank()*3)
			if r.Rank() == root {
				for i, v := range vals {
					if v.(int) != i*3 {
						t.Errorf("root %d: gather[%d] = %v", root, i, v)
					}
				}
			}
			if got := r.Comm().Scatter(root, nb, vals); got.(int) != r.Rank()*3 {
				t.Errorf("root %d: rank %d scatter got %v", root, r.Rank(), got)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var moved int64
		for _, nic := range w.nics {
			moved += nic.Moved
		}
		if moved != 2*want {
			t.Errorf("root %d: gather+scatter moved %d bytes, want %d", root, moved, 2*want)
		}
	}
}

// TestSteadyStateAllocFree: once warm, an inter-node Send/Recv and a
// Barrier round allocate nothing, engine and NIC flows included.
func TestSteadyStateAllocFree(t *testing.T) {
	const warm, ops = 1000, 10000
	var perOp float64
	eng := sim.NewEngine(1)
	NewWorld(eng, 2, 1, DefaultNet()).SpawnAll(func(r *Rank) {
		c := r.Comm()
		step := func(i int) {
			if r.Rank() == 0 {
				r.Send(1, i, 4096, nil)
			} else {
				r.Recv(0, i)
			}
			c.Barrier()
		}
		if r.Rank() == 1 {
			for i := 0; i < warm+ops; i++ {
				step(i)
			}
			return
		}
		for i := 0; i < warm; i++ {
			step(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+ops; i++ {
			step(i)
		}
		runtime.ReadMemStats(&after)
		perOp = float64(after.Mallocs-before.Mallocs) / ops
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if perOp >= 0.01 {
		t.Errorf("Send/Recv plus Barrier: %.3f mallocs per step, want < 0.01", perOp)
	}
}

// procBarrier is the process-driven dissemination barrier that Barrier's
// engine callbacks replaced, kept as their reference: the rank's own code
// sends and receives every round.
func procBarrier(c *Comm) {
	defer func() { c.seq++ }()
	n := len(c.members)
	round := 0
	for k := 1; k < n; k <<= 1 {
		c.send((c.me+k)%n, round, 0, nil)
		c.recv((c.me-k+n)%n, round)
		round++
	}
}

// resumption is one line of a barrier trace: a rank (or the observer, -1)
// running at time t, at step what of its program.
type resumption struct {
	who, what int
	t         sim.Time
}

// barrierTrace runs a seeded program on n ranks with barrier standing in
// for Comm.Barrier: random arrivals, back-to-back barriers, point-to-point
// traffic between two, and a barrier on a Split sub-communicator.  It
// returns every rank's resumption after each barrier, interleaved in run
// order with the events of an observer process that is not a rank and
// that runs, yields and schedules a callback at each instant in visit.
func barrierTrace(t *testing.T, seed int64, n int, lat time.Duration, barrier func(*Comm), visit []sim.Time) []resumption {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	arrive := make([]time.Duration, n)
	pause := make([]time.Duration, n)
	bytes := make([]int64, n)
	for i := range arrive {
		arrive[i] = time.Duration(rng.Intn(50_000))
		pause[i] = time.Duration(rng.Intn(5_000))
		bytes[i] = int64(rng.Intn(8 << 10))
	}
	eng := sim.NewEngine(seed)
	var trace []resumption
	log := func(who, what int) { trace = append(trace, resumption{who, what, eng.Now()}) }
	net := DefaultNet()
	net.Latency = lat
	NewWorld(eng, n, 4, net).SpawnAll(func(r *Rank) {
		c, me := r.Comm(), r.Rank()
		r.Proc().Sleep(arrive[me])
		barrier(c)
		log(me, 0)
		barrier(c)
		log(me, 1)
		if n > 1 {
			r.Send((me+1)%n, 7, bytes[me], me)
			if m := r.Recv((me-1+n)%n, 7); m.Val.(int) != (me-1+n)%n {
				t.Errorf("rank %d received %v", me, m.Val)
			}
		}
		r.Proc().Sleep(pause[me])
		barrier(c)
		log(me, 2)
		sub := c.Split(me%3, -me).(*Comm)
		r.Proc().Sleep(pause[(me+1)%n])
		barrier(sub)
		log(me, 3)
		barrier(c)
		log(me, 4)
	})
	eng.Spawn("observer", func(p *sim.Proc) {
		for i, at := range visit {
			p.Sleep(time.Duration(at - p.Now()))
			log(-1, 3*i)
			eng.After(0, func() { log(-1, 3*i+1) })
			p.Yield()
			log(-1, 3*i+2)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestBarrierMatchesProcDriven: the barrier whose rounds run as engine
// callbacks resumes every rank at the same virtual time and in the same
// global order, relative to each other and to an unrelated process's
// events at the exit instants, as the process-driven reference.
func TestBarrierMatchesProcDriven(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 64, 1000} {
		for _, lat := range []time.Duration{0, 2 * time.Microsecond} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n=%d/lat=%v/seed=%d", n, lat, seed), func(t *testing.T) {
					var exits []sim.Time
					for _, r := range barrierTrace(t, seed, n, lat, procBarrier, nil) {
						exits = append(exits, r.t)
					}
					slices.Sort(exits)
					exits = slices.Compact(exits)
					want := barrierTrace(t, seed, n, lat, procBarrier, exits)
					got := barrierTrace(t, seed, n, lat, (*Comm).Barrier, exits)
					if len(want) != 5*n+3*len(exits) {
						t.Fatalf("reference trace has %d lines, want %d", len(want), 5*n+3*len(exits))
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("traces diverge at line %d of %d: got %+v, want %+v",
							i, len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
					}
				})
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []resumption) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestBarrierPanicAfterResume: a rank that panics once the barrier has
// resumed it fails the run with its panic, in the event that resumed it.
func TestBarrierPanicAfterResume(t *testing.T) {
	eng := sim.NewEngine(1)
	slept := false
	NewWorld(eng, 5, 2, DefaultNet()).SpawnAll(func(r *Rank) {
		r.Comm().Barrier()
		if r.Rank() == 3 {
			panic("rank 3 after the barrier")
		}
		r.Proc().Sleep(time.Millisecond)
		slept = true
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "rank 3 after the barrier") {
		t.Fatalf("Run = %v, want rank 3's panic", err)
	}
	if slept {
		t.Fatalf("the run went on to %v after the panic", eng.Now())
	}
}

// TestBarrierMissingRankDeadlocks: a barrier one rank never enters holds
// the others forever; Run reports the deadlock and unwinds them.
func TestBarrierMissingRankDeadlocks(t *testing.T) {
	eng := sim.NewEngine(1)
	NewWorld(eng, 4, 2, DefaultNet()).SpawnAll(func(r *Rank) {
		if r.Rank() != 2 {
			r.Comm().Barrier()
		}
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock: 3 processes") {
		t.Fatalf("Run = %v, want a deadlock of 3 ranks", err)
	}
	if eng.Live() != 0 {
		t.Fatalf("%d processes outlived Run", eng.Live())
	}
}
