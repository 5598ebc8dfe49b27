package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"plfs/internal/fault"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
	"plfs/internal/sim"
)

// Probes drive one layer's public functions at the workload's size and
// report host cost per unit of work.  On the simulated path a span around
// a call would include every other process's turn, so host cost per layer
// cannot come from spans; these numbers stand in.  Each probe repeats
// probeReps times and reports the median.

const probeReps = 3

// sink keeps probe results alive so the compiler cannot drop the work.
var sink any

func medianOf(fn func() float64) float64 {
	vals := make([]float64, probeReps)
	for i := range vals {
		vals[i] = fn()
	}
	return median(vals)
}

// probeSimPark: many processes sleeping staggered intervals, so nearly
// every event hands control to a different process — host ns per event.
func probeSimPark(sc scale) float64 {
	return medianOf(func() float64 {
		eng := sim.NewEngine(1)
		for i := 0; i < sc.probeProcs; i++ {
			d := time.Duration(i%7+1) * time.Microsecond
			eng.Spawn("p", func(p *sim.Proc) {
				for k := 0; k < sc.probeSleeps; k++ {
					p.Sleep(d)
				}
			})
		}
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sc.probeProcs*sc.probeSleeps)
	})
}

// probeSimSelfWake: one process sleeping alone, so every event wakes the
// process that scheduled it — the uncontended Sleep/Resource.Use case.
func probeSimSelfWake(sc scale) float64 {
	return medianOf(func() float64 {
		eng := sim.NewEngine(1)
		eng.Spawn("p", func(p *sim.Proc) {
			for k := 0; k < sc.probeSelfWakes; k++ {
				p.Sleep(time.Microsecond)
			}
		})
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sc.probeSelfWakes)
	})
}

// probeSimResource: many processes queueing on a 4-server resource, the
// shape of a metadata server under a create storm — host ns per Use.
func probeSimResource(sc scale) float64 {
	const uses = 16
	return medianOf(func() float64 {
		eng := sim.NewEngine(1)
		res := sim.NewResource(eng, 4)
		for i := 0; i < sc.probeProcs; i++ {
			eng.Spawn("p", func(p *sim.Proc) {
				for k := 0; k < uses; k++ {
					res.Use(p, time.Microsecond)
				}
			})
		}
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sc.probeProcs*uses)
	})
}

// probeSimSpawn: host µs to spawn a process and run it to exit.
func probeSimSpawn(sc scale) float64 {
	return medianOf(func() float64 {
		t0 := time.Now()
		eng := sim.NewEngine(1)
		for i := 0; i < sc.probeSpawns; i++ {
			eng.Spawn("p", func(p *sim.Proc) {})
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0).Microseconds()) / float64(sc.probeSpawns)
	})
}

// probeMPI times collectives over the simulated world: host µs per
// barrier and per 64-byte allgather, and the virtual µs a barrier costs.
func probeMPI(sc scale) (hostBarrierUs, virtBarrierUs, hostAllgatherUs float64) {
	const rounds = 8
	run := func(fn func(c *mpi.Comm)) (hostUs, virtUs float64) {
		eng := sim.NewEngine(1)
		world := mpi.NewWorld(eng, sc.probeProcs, 16, mpi.DefaultNet())
		world.SpawnAll(func(r *mpi.Rank) {
			c := r.Comm()
			for k := 0; k < rounds; k++ {
				fn(c)
			}
		})
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(t0).Microseconds()) / rounds, float64(eng.Now()) / 1e3 / rounds
	}
	hostBarrierUs = medianOf(func() float64 {
		var h float64
		h, virtBarrierUs = run(func(c *mpi.Comm) { c.Barrier() })
		return h
	})
	hostAllgatherUs = medianOf(func() float64 {
		h, _ := run(func(c *mpi.Comm) { c.Allgather(64, c.Rank()) })
		return h
	})
	return
}

// probeIndexBuildStrided builds the index the restart workload builds:
// one shard per rank, each the single run record a strided writer's
// flush produces — host ns per raw record represented.
func probeIndexBuildStrided(sc scale) float64 {
	ranks := sc.n1Ranks
	ops := int32(sc.n1Bytes / sc.n1Op)
	shards := make([][]plfs.Rec, ranks)
	paths := make([]string, ranks)
	for r := range shards {
		shards[r] = []plfs.Rec{{
			Entry:  plfs.Entry{LogicalOff: int64(r) * sc.n1Op, Length: sc.n1Op, Timestamp: 1, Dropping: int32(r), Rank: int32(r)},
			Count:  ops,
			Stride: int64(ranks) * sc.n1Op,
		}}
		paths[r] = "d"
	}
	return medianOf(func() float64 {
		t0 := time.Now()
		sink = plfs.BuildIndexRecs(shards, paths, 0)
		return float64(time.Since(t0).Nanoseconds()) / float64(ranks*int(ops))
	})
}

// probeIndexRandom builds and queries the index the small-random
// workload builds: one shard per rank of single records at permuted
// slots — host ns per record built, and per Lookup of one op.
func probeIndexRandom(sc scale) (buildNsPerRec, lookupNs float64) {
	ranks := osfsRanks(sc)
	per := int(sc.smallBytes / sc.smallOp)
	perm := rand.New(rand.NewSource(1)).Perm(ranks * per)
	shards := make([][]plfs.Rec, ranks)
	paths := make([]string, ranks)
	for r := range shards {
		shards[r] = make([]plfs.Rec, per)
		for k := range shards[r] {
			shards[r][k] = plfs.Rec{Count: 1, Entry: plfs.Entry{
				LogicalOff: int64(perm[r*per+k]) * sc.smallOp, Length: sc.smallOp,
				PhysOff: int64(k) * sc.smallOp, Timestamp: int64(k + 1), Dropping: int32(r), Rank: int32(r),
			}}
		}
		paths[r] = "d"
	}
	var ix *plfs.Index
	buildNsPerRec = medianOf(func() float64 {
		t0 := time.Now()
		ix = plfs.BuildIndexRecs(shards, paths, 0)
		return float64(time.Since(t0).Nanoseconds()) / float64(ranks*per)
	})
	lookupNs = medianOf(func() float64 {
		var pieces []plfs.Piece
		t0 := time.Now()
		for _, slot := range perm {
			pieces = ix.AppendPieces(pieces[:0], int64(slot)*sc.smallOp, sc.smallOp)
		}
		sink = pieces
		return float64(time.Since(t0).Nanoseconds()) / float64(len(perm))
	})
	return
}

// probeMaterialize: GB/s of the copy every osfs write makes of its
// payload, at the streaming workload's op size.
func probeMaterialize(sc scale) float64 {
	buf := make([]byte, sc.streamOp)
	const n = 4096
	return medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink = payload.FromBytes(buf).Materialize()
		}
		return float64(n) * float64(len(buf)) / float64(time.Since(t0).Nanoseconds())
	})
}

// probeFaultWrap: host ns the fault decorator adds to one 1 KiB append
// when no fault is configured (wrapped minus bare).
func probeFaultWrap(sc scale, dir string) float64 {
	p := payload.FromBytes(make([]byte, sc.smallOp))
	appends := func(b plfs.Backend, name string) float64 {
		path := filepath.Join(dir, name)
		f, err := b.Create(path)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		for i := 0; i < sc.probeAppends; i++ {
			if _, err := f.Append(p); err != nil {
				panic(err)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(sc.probeAppends)
		f.Close()
		b.Remove(path)
		return ns
	}
	return medianOf(func() float64 {
		bare := appends(osfs.New(), "probe.bare")
		wrapped := appends(fault.New(fault.Spec{}).Wrap(osfs.New(), 0, nil), "probe.wrapped")
		return wrapped - bare
	})
}

// probeObsSpan: host ns of one enabled internal/obs span, the cost a
// traced simulated job pays per phase per rank.
func probeObsSpan() float64 {
	const n = 50_000
	return medianOf(func() float64 {
		reg := obs.New()
		reg.SetSpanLimit(n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			reg.StartSpan("probe").End()
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// probeTracerSpan: host ns of one span of the benchmark's own tracer,
// the cost a traced osfs iteration pays per call.
func probeTracerSpan() float64 {
	const n = 200_000
	return medianOf(func() float64 {
		t := newTracer(0, time.Now())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.end(t.begin("probe", false))
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}
