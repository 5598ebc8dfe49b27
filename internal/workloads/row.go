package workloads

import (
	"errors"
	"fmt"

	"plfs/internal/adio"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// layout is where a row's files live.
type layout uint8

const (
	shared       layout = iota // one N-1 file at the kernel's path
	perRank                    // path.rank, opened on a serial ctx
	perRankFiles               // files of them, path.rank.i, opened together on a serial ctx
	perStep                    // one N-1 file per step, path-s<step>
	perContainer               // one N-1 file per container, path-c<container>
)

// calls is how a row issues its ops.
type calls uint8

const (
	independent calls = iota // WriteAt / ReadAt per op
	collective               // WriteAtAll / ReadAtAll per op
	datatype                 // one WriteAll / ReadAll per op, from row.dt
	opensOnly                // no ops: opens and closes only
)

// readback is whose ops a read session reads, in what order.
type readback uint8

const (
	own       readback = iota // the rank's own ops, in write order
	neighbour                 // rank+1's ops
	reversed                  // the rank's own ops, last run first
	first                     // the rank's first op only
)

// stepping is how a stepped row meets Env.Step.
type stepping uint8

const (
	unstepped stepping = iota
	aligned            // a barrier opens every step; rank 0 runs Env.Step after it
	fenced             // with Env.Step set, it runs on rank 0 between two barriers after every step
)

// access is one rank's data ops: runs of count ops of size bytes,
// stride apart (the shape of one index record, Rec{Count, Stride}),
// rank r's first at off + r*perRank.  The run repeats runs times,
// runStride apart.  A non-zero span cuts every op at span bytes past
// its run's start.
type access struct {
	off, perRank int64
	count        int
	stride, size int64
	runs         int
	runStride    int64
	span         int64
}

// bytes is what one rank's write session moves.
func (a *access) bytes() int64 {
	if a.span > 0 {
		return int64(a.runs) * a.span
	}
	return int64(a.runs) * int64(a.count) * a.size
}

// interleaved is the N-1 strided pattern: op k of rank r at
// (k*n + r)*op.
func interleaved(n int, op int64, ops int) access {
	return access{perRank: op, count: ops, stride: int64(n) * op, size: op, runs: 1}
}

// segmented gives each rank one contiguous block of ops ops: op k of
// rank r at (r*ops + k)*op.
func segmented(op int64, ops int) access {
	return access{perRank: int64(ops) * op, count: ops, stride: op, size: op, runs: 1}
}

// opsOf is how many whole ops of op bytes fit in bytes (none when op is
// not positive; run rejects such a row).
func opsOf(bytes, op int64) int {
	if op <= 0 {
		return 0
	}
	return int(bytes / op)
}

// row states one kernel as data, resolved for a job of n ranks: where
// its files live, the format header at their front, which bytes each
// rank writes and reads back, how it issues those ops, and how many
// sessions it runs.  Every kernel is a row, and run executes any row.
type row struct {
	layout   layout
	calls    calls
	read     readback
	stepping stepping
	rewrite  bool // a second write session rewrites every other op
	reread   bool // every later step also reads rank 0's first op of step 0's file
	// tenant marks a job sharing a service mount: a file the admission
	// gate refuses is skipped on every rank alike, open times go to the
	// saturation.open_*_ns histograms, and no caches are dropped.
	tenant bool
	files  int // perRankFiles: files per rank
	// hdr is a format header: rank 0 writes hdr bytes at offset 0 and
	// every rank waits at a barrier before the data ops; every read
	// session starts with each rank reading the hdrRegion at offset 0.
	hdr int64
	acc access
	// dt gives datatype op i of rank: its base, its file type and the
	// rank's data for it.
	dt      func(i, rank, n int) (int64, *adio.Datatype, payload.List)
	chunk   int // read sessions issue this many adjacent ops as one call (0: one)
	reopens int // read sessions per file
	// Sessions: steps, each over containers files (sessions on separate
	// files).
	steps, containers int
}

// hdrRegion is the space a format library reserves for its header at
// the front of a file; every opener reads all of it.
const hdrRegion = 4096

// once is a row of one step over one file with one read session.
func once(acc access) row { return row{acc: acc, steps: 1, containers: 1, reopens: 1} }

// kernel is a named row that depends on the job size.
type kernel struct {
	name string
	row  func(n int) row
}

// Name implements Kernel.
func (k kernel) Name() string { return k.name }

// Run implements Kernel.
func (k kernel) Run(env *Env, readBack bool) (Result, error) {
	r := k.row(env.Ranks())
	return r.run(env, readBack)
}

// run executes the row: per step, a write session on each of its files,
// then, with readBack, a cache drop and the read sessions.  A session is
// open → body → close, each a timed phase; its times add to the Result
// by mode.
func (k *row) run(env *Env, readBack bool) (res Result, err error) {
	if k.calls != opensOnly && k.acc.size <= 0 {
		return res, fmt.Errorf("workload %s: op size %d is not positive", env.Path, k.acc.size)
	}
	rank := env.Rank()
	var written []bool
	if k.tenant {
		written = make([]bool, k.containers)
	}
	read := pass{mode: adio.ReadOnly, owner: rank, every: 1, first: k.read == first}
	if k.read == neighbour {
		read.owner = (rank + 1) % env.Ranks()
	}
	for s := 0; s < k.steps; s++ {
		if k.stepping == aligned {
			env.Ctx.Comm.Barrier()
		}
		var step Result
		path0 := k.path(env, s, 0)
		for c := 0; c < k.containers; c++ {
			path := path0
			if c > 0 {
				path = k.path(env, s, c)
			}
			skipped, err := k.session(env, &step, path, pass{mode: adio.WriteCreate, owner: rank, every: 1})
			if err == nil && !skipped && k.rewrite {
				_, err = k.session(env, &step, path, pass{mode: adio.WriteCreate, owner: rank, every: 2})
			}
			if err != nil {
				return res, err
			}
			if !skipped {
				step.BytesPerRank += k.acc.bytes()
				if written != nil {
					written[c] = true
				}
			}
		}
		if readBack && k.calls != opensOnly {
			if !k.tenant {
				env.dropCaches()
			}
			for c := 0; c < k.containers; c++ {
				if written != nil && !written[c] {
					continue
				}
				path := path0
				if c > 0 {
					path = k.path(env, s, c)
				}
				for i := 0; i < k.reopens; i++ {
					if _, err := k.session(env, &step, path, read); err != nil {
						return res, err
					}
				}
			}
			if k.reread && s > 0 {
				if _, err := k.session(env, &step, k.path(env, 0, 0), pass{mode: adio.ReadOnly, every: 1, first: true}); err != nil {
					return res, err
				}
			}
		}
		k.hook(env, s, &step)
		res.add(&step)
	}
	return res, nil
}

// path names container c of step s.
func (k *row) path(env *Env, s, c int) string {
	switch k.layout {
	case perRank, perRankFiles:
		return fmt.Sprintf("%s.%d", env.Path, env.Rank())
	case perStep:
		return fmt.Sprintf("%s-s%d", env.Path, s)
	case perContainer:
		return fmt.Sprintf("%s-c%d", env.Path, c)
	}
	return env.Path
}

// pass is one session's body: owner's ops, every every-th of them, or
// only the first.
type pass struct {
	mode         adio.Mode
	owner, every int
	first        bool
}

// session opens path, runs the pass, and closes, each a timed phase
// added to res.  skipped reports a tenant's file the admission gate
// refused.
func (k *row) session(env *Env, res *Result, path string, p pass) (skipped bool, err error) {
	var one [1]adio.File
	files := one[:]
	if k.layout == perRankFiles {
		files = make([]adio.File, k.files)
	}
	write := p.mode == adio.WriteCreate
	topen, tio, tclose := &res.ReadOpen, &res.Read, &res.ReadClose
	if write {
		topen, tio, tclose = &res.WriteOpen, &res.Write, &res.WriteClose
	}
	ctx := env.Ctx
	if k.layout == perRank || k.layout == perRankFiles {
		ctx.Comm = nil // private files: uncoordinated opens
	}
	start := env.begin()
	for i := range files {
		name := path
		if k.layout == perRankFiles {
			name = fmt.Sprintf("%s.%d", path, i)
		}
		if files[i], err = env.Driver.Open(ctx, name, p.mode, env.Hints); err != nil {
			break
		}
	}
	d := env.end(start)
	if k.tenant && errors.Is(err, plfs.ErrAdmission) {
		return true, nil
	}
	if k.tenant && env.Ctx.Obs != nil && env.Rank() == 0 {
		name := "saturation.open_read_ns"
		if write {
			name = "saturation.open_write_ns"
		}
		env.Ctx.Obs.Histogram(name).ObserveNanos(int64(d))
	}
	*topen += d
	if err != nil {
		return false, err
	}
	if k.calls != opensOnly {
		start = env.begin()
		err = k.body(env, files[0], p)
		*tio += env.end(start)
		if err != nil {
			return false, err
		}
	}
	start = env.begin()
	for _, f := range files {
		if err = f.Close(); err != nil {
			break
		}
	}
	*tclose += env.end(start)
	return false, err
}

// body issues one session's ops on f: the header, then the owner's runs.
func (k *row) body(env *Env, f adio.File, p pass) error {
	write := p.mode == adio.WriteCreate
	if k.hdr > 0 && write {
		if env.Rank() == 0 {
			if err := f.WriteAt(0, payload.Synthetic(tag(0), 0, k.hdr)); err != nil {
				return err
			}
		}
		env.Ctx.Comm.Barrier()
	}
	if k.hdr > 0 && !write {
		got, err := f.ReadAt(0, hdrRegion)
		if err != nil {
			return err
		}
		if err := verifyPiece(env, got.Slice(0, k.hdr), tag(0), 0, k.hdr); err != nil {
			return err
		}
	}
	a := k.acc
	group := 1
	if !write {
		group = max(k.chunk, 1)
	}
	for r := 0; r < a.runs; r++ {
		run := r
		if !write && k.read == reversed {
			run = a.runs - 1 - r
		}
		base := a.off + int64(p.owner)*a.perRank + int64(run)*a.runStride
		for i := 0; i < a.count; i += p.every * group {
			off := base + int64(i)*a.stride
			n := a.size + int64(min(group, a.count-i)-1)*a.stride
			if a.span > 0 {
				n = min(n, a.span-int64(i)*a.stride)
			}
			if err := k.op(env, f, write, p.owner, i, off, n); err != nil {
				return err
			}
			if p.first {
				return nil
			}
		}
	}
	return nil
}

// op issues op i of owner, covering [off, off+n), and verifies a read.
func (k *row) op(env *Env, f adio.File, write bool, owner, i int, off, n int64) error {
	var got payload.List
	var err error
	switch {
	case k.calls == datatype:
		base, dt, data := k.dt(i, owner, env.Ranks())
		if write {
			return f.WriteAll(base, dt, data)
		}
		if got, err = f.ReadAll(base, dt); err != nil {
			return err
		}
		if env.Verify && !payload.ContentEqual(got, data) {
			return fmt.Errorf("workload %s: data mismatch at step %d rank %d", env.Path, i, owner)
		}
		return nil
	case write && k.calls == collective:
		return f.WriteAtAll(off, payload.Synthetic(tag(owner), off, n))
	case write:
		return f.WriteAt(off, payload.Synthetic(tag(owner), off, n))
	case k.calls == collective:
		got, err = f.ReadAtAll(off, n)
	default:
		got, err = f.ReadAt(off, n)
	}
	if err != nil {
		return err
	}
	return verifyPiece(env, got, tag(owner), off, n)
}

// hook runs Env.Step after step s as the row's stepping says.
func (k *row) hook(env *Env, s int, step *Result) {
	if env.Step == nil {
		return
	}
	switch k.stepping {
	case aligned:
		if env.Rank() == 0 {
			env.Step(s, *step)
		}
	case fenced:
		env.Ctx.Comm.Barrier()
		if env.Rank() == 0 {
			env.Step(s, *step)
		}
		env.Ctx.Comm.Barrier()
	}
}
