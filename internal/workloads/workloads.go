// Package workloads implements the I/O kernels of the paper's evaluation:
// the LANL MPI-IO Test synthetic generator, IOR, MADbench, Pixie3D
// (Parallel-NetCDF's access pattern), the ARAMCO seismic kernel (HDF5's),
// the LANL 1–3 application kernels, the N-N create storm used for the
// metadata experiments, and the service ablations' kernels.
//
// Each kernel is a row (row.go): its layout, format header, per-rank
// access as strided runs, call style, read-back and sessions.  One
// executor runs any row against any adio.Driver, so each workload can be
// driven through PLFS or directly against the underlying parallel file
// system — the comparison every figure in the paper draws.
package workloads

import (
	"fmt"
	"time"

	"plfs/internal/adio"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// Env is one rank's execution environment for a kernel run.
type Env struct {
	Ctx    plfs.Ctx
	Driver adio.Driver
	Hints  adio.Hints
	Path   string
	Verify bool
	// InvalidateCaches, when set, is called between the write and read
	// phases (the drop_caches benchmarking hygiene); it must be safe to
	// call from every rank.
	InvalidateCaches func()
	// Step, when set, runs on rank 0 after each step of a stepped kernel
	// (Brownout's steps, CreateStorm100k's rounds) with that step's
	// Result, outside the timed phases, while the other ranks wait at
	// the kernel's next barrier.  Harnesses hang fault schedules, repair
	// passes and per-step series on it.
	Step func(step int, res Result)
}

// dropCaches invalidates caches between phases, if configured.
func (e *Env) dropCaches() {
	if e.InvalidateCaches != nil {
		e.Ctx.Comm.Barrier()
		e.InvalidateCaches()
		e.Ctx.Comm.Barrier()
	}
}

// Rank returns the caller's rank.
func (e *Env) Rank() int { return e.Ctx.Comm.Rank() }

// Ranks returns the job size.
func (e *Env) Ranks() int { return e.Ctx.Comm.Size() }

func (e *Env) now() time.Duration { return time.Duration(e.Ctx.Clock.Now()) }

// begin and end bracket a timed phase with barriers; end returns the
// job-wide duration (all ranks leave the trailing barrier together, so
// every rank measures the same span a bulk-synchronous job would
// report).
func (e *Env) begin() time.Duration {
	e.Ctx.Comm.Barrier()
	return e.now()
}

func (e *Env) end(start time.Duration) time.Duration {
	e.Ctx.Comm.Barrier()
	return e.now() - start
}

// Result reports job-level phase times and per-rank volumes.
type Result struct {
	WriteOpen    time.Duration
	Write        time.Duration
	WriteClose   time.Duration
	ReadOpen     time.Duration
	Read         time.Duration
	ReadClose    time.Duration
	BytesPerRank int64
}

// add accumulates another session's or step's times and bytes.
func (r *Result) add(o *Result) {
	r.WriteOpen += o.WriteOpen
	r.Write += o.Write
	r.WriteClose += o.WriteClose
	r.ReadOpen += o.ReadOpen
	r.Read += o.Read
	r.ReadClose += o.ReadClose
	r.BytesPerRank += o.BytesPerRank
}

// WriteTotal is open+write+close — the span effective write bandwidth
// divides by.
func (r Result) WriteTotal() time.Duration { return r.WriteOpen + r.Write + r.WriteClose }

// ReadTotal is open+read+close — the paper's "effective read bandwidth"
// denominator (§IV note 2).
func (r Result) ReadTotal() time.Duration { return r.ReadOpen + r.Read + r.ReadClose }

// WriteBW returns effective write bandwidth in bytes/sec for a job of n
// ranks.
func (r Result) WriteBW(n int) float64 {
	if r.WriteTotal() <= 0 {
		return 0
	}
	return float64(r.BytesPerRank) * float64(n) / r.WriteTotal().Seconds()
}

// ReadBW returns effective read bandwidth in bytes/sec.
func (r Result) ReadBW(n int) float64 {
	if r.ReadTotal() <= 0 {
		return 0
	}
	return float64(r.BytesPerRank) * float64(n) / r.ReadTotal().Seconds()
}

// Kernel is a runnable workload: a write pass producing a dataset and a
// read pass consuming it.
type Kernel interface {
	Name() string
	// Run executes the write phase and then, if readBack, the read phase,
	// filling in the Result.  Collective: every rank calls Run.
	Run(env *Env, readBack bool) (Result, error)
}

// tag derives the synthetic content tag for a writer rank.
func tag(rank int) uint64 { return uint64(rank) + 1 }

// verifyPiece checks that a read range carries the expected writer's
// pattern.
func verifyPiece(env *Env, got payload.List, wantTag uint64, off, n int64) error {
	if !env.Verify {
		return nil
	}
	want := payload.List{payload.Synthetic(wantTag, off, n)}
	if !payload.ContentEqual(got, want) {
		return fmt.Errorf("workload %s: data mismatch at [%d,%d)", env.Path, off, off+n)
	}
	return nil
}
