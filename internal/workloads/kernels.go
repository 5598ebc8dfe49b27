package workloads

import "strconv"

// MPIIOTest reproduces the LANL MPI-IO Test configuration of §IV.C: each
// concurrent I/O stream moves bytesPerRank in opSize increments, N-1
// strided, with the read pattern matching the write pattern.
func MPIIOTest(bytesPerRank, opSize int64) Kernel {
	return stridedN1("mpi-io-test", opSize, opsOf(bytesPerRank, opSize), independent)
}

// LANL1 is the §IV.D.5 kernel: a weak-scaling mission application writing
// and reading in ~500 KB strided increments.
func LANL1(bytesPerRank int64) Kernel {
	const op = 500 << 10
	return stridedN1("lanl1", op, opsOf(bytesPerRank, op), independent)
}

// LANL2 is the write-workload proxy for the paper's worst-case Fig. 2
// application: small (16 KiB), lock-unit-unaligned, strided records — the
// pattern that collapses shared-file write bandwidth hardest and gives
// PLFS its largest speedups.
func LANL2(bytesPerRank int64) Kernel {
	const op = 16<<10 + 512 // unaligned with every power-of-two lock unit
	return stridedN1("lanl2", op, opsOf(bytesPerRank, op), independent)
}

// LANL3 is the §IV.D.6 kernel: strong scaling to a shared file, tiny
// (1024 B) accesses aggregated by collective buffering (enable it in
// Env.Hints).  The simulated kernel issues one collective call per
// aggregation round: with two-phase I/O the wire and disk traffic of the
// tiny interleaved accesses is identical to the contiguous per-round
// exchange, and the constant round geometry is what keeps the PLFS index
// size flat, as the paper observes.
func LANL3(totalBytes int64, ranks int) Kernel {
	const round = 1 << 20 // per-rank bytes contributed per collective round
	return stridedN1("lanl3", round, max(opsOf(totalBytes/int64(max(ranks, 1)), round), 1), collective)
}

// stridedN1 is the N-1 strided kernel: rank i's k-th op at
// (k*N + i) * op, read back the way it was written.
func stridedN1(name string, op int64, ops int, c calls) Kernel {
	return kernel{name, func(n int) row {
		r := once(interleaved(n, op, ops))
		r.calls = c
		return r
	}}
}

// IOR reproduces the §IV.D.3 configuration: 50 MB per process in 1 MB
// increments to a shared file, segmented layout (rank i owns one
// contiguous block), read-write mode opens converted to read-only
// (PLFS's restriction — handled by adio).
func IOR(bytesPerRank, opSize int64) Kernel {
	acc := segmented(opSize, opsOf(bytesPerRank, opSize))
	return kernel{"ior", func(int) row { return once(acc) }}
}

// RestartN1 builds the checkpoint-restart kernel: bytesPerRank written
// as one contiguous slab per rank in opSize increments, every other block
// then rewritten into a second dropping, and each rank reads its
// neighbour's slab back in chunks of 16 blocks.  The survivors of the
// first dropping are one block apart physically, so one chunk resolves
// to many pieces alternating between that writer's two droppings —
// exactly the near-adjacent gaps read sieving coalesces.
func RestartN1(bytesPerRank, opSize int64) Kernel {
	r := once(segmented(opSize, opsOf(bytesPerRank, opSize)))
	r.rewrite, r.read, r.chunk = true, neighbour, 16
	return kernel{"restart-n1", func(int) row { return r }}
}

// ReopenN1 builds the repeated-open kernel: one strided checkpoint, then
// reopens open/read-one-block/close cycles against the unchanged file,
// after one cache drop.  Open cost dominates by design: the kernel
// isolates what the cross-open index cache eliminates for analysis tools
// that revisit an unchanged file.
func ReopenN1(bytesPerRank, opSize int64, reopens int) Kernel {
	ops := opsOf(bytesPerRank, opSize)
	return kernel{"reopen-n1", func(n int) row {
		r := once(interleaved(n, opSize, ops))
		r.read, r.reopens = first, reopens
		return r
	}}
}

// Madbench reproduces the §IV.D.4 I/O phases of the MADspec cosmic
// microwave background code: each rank writes its share of M matrices
// sequentially, then reads them all back, most recent first (opens
// converted to read-only).
type Madbench struct {
	Matrices    int
	MatrixBytes int64 // per rank, per matrix
	// OpSize is the access granularity within a matrix (default 1 MiB).
	OpSize int64
}

// Name implements Kernel.
func (Madbench) Name() string { return "madbench" }

// Run implements Kernel.  One matrix spans all ranks: a run per matrix,
// cut into ops, the last one short.
func (m Madbench) Run(env *Env, readBack bool) (Result, error) {
	op := m.OpSize
	if op <= 0 {
		op = 1 << 20
	}
	if op > m.MatrixBytes {
		op = m.MatrixBytes
	}
	mb := m.MatrixBytes
	r := once(access{perRank: mb, count: opsOf(mb+op-1, op), stride: op, size: op, span: mb,
		runs: m.Matrices, runStride: mb * int64(env.Ranks())})
	r.read = reversed
	return r.run(env, readBack)
}

// Pixie3D reproduces the §IV.D.1 kernel: the Pixie3D MHD code doing its
// I/O through Parallel-NetCDF.  Weak scaling — every process contributes
// BytesPerRank across Vars field variables (default 8); every process
// reads its slab back from the shared file.
//
// What the library leaves on the file is its access pattern: rank 0
// writes the header (magic, the dimensions x = ranks and elem, and each
// variable fieldV's name, element size and two dimension ids) before a
// barrier, every opener reads the 4 KiB header region, and variable v,
// an [N][perVar] array of 8-byte elements behind the header, gets one
// row from each rank.
type Pixie3D struct {
	BytesPerRank int64
	Vars         int
}

// Name implements Kernel.
func (Pixie3D) Name() string { return "pixie3d" }

// Run implements Kernel.
func (p Pixie3D) Run(env *Env, readBack bool) (Result, error) {
	vars := p.Vars
	if vars <= 0 {
		vars = 8
	}
	const elem = 8
	slab := max(p.BytesPerRank/int64(vars)/elem, 1) * elem // one variable's row
	r := once(access{off: hdrRegion, perRank: slab, count: 1, size: slab,
		runs: vars, runStride: slab * int64(env.Ranks())})
	r.hdr = 4 + 4 + (4 + 1 + 8) + (4 + 4 + 8) + 4
	for v := 0; v < vars; v++ {
		r.hdr += 4 + int64(len("field"+strconv.Itoa(v))) + 4 + 4 + 2*4
	}
	return r.run(env, readBack)
}

// Aramco reproduces the §IV.D.2 kernel: a seismic processing application
// using MPI-IO and HDF5.  Strong scaling — the dataset is TotalBytes
// regardless of process count; each rank writes and reads its shrinking
// share, in whole chunks.
//
// What the library leaves on the file is its access pattern: rank 0
// writes the header (magic and one dataset, "traces", of 4-byte
// elements, one dimension) before a barrier, every opener reads the
// 4 KiB header region, and each rank's share of the dataset behind it
// is one contiguous slab.
type Aramco struct {
	TotalBytes int64
	// OpSize is the access granularity (default 1 MiB): seismic traces are
	// processed in chunks, not slurped whole.
	OpSize int64
}

// Name implements Kernel.
func (Aramco) Name() string { return "aramco" }

// Run implements Kernel.
func (a Aramco) Run(env *Env, readBack bool) (Result, error) {
	const elem = 4
	op := a.OpSize
	if op <= 0 {
		op = 1 << 20
	}
	per := max(a.TotalBytes/elem/int64(env.Ranks())*elem, op) // bytes per rank
	r := once(segmented(op, opsOf(per, op)))
	r.acc.off = hdrRegion
	r.hdr = 4 + 4 + (4 + 6) + 4 + 4 + 8
	return r.run(env, readBack)
}

// NNFiles is the N-N data workload: every rank writes BytesPerRank into
// its own file in OpSize sequential increments and reads it back — the
// pattern parallel file systems love, used as the "N-N without PLFS"
// series of the large-scale read experiment (Fig. 8a).
type NNFiles struct {
	BytesPerRank int64
	OpSize       int64
}

// Name implements Kernel.
func (NNFiles) Name() string { return "n-n" }

// Run implements Kernel.
func (k NNFiles) Run(env *Env, readBack bool) (Result, error) {
	r := once(segmented(k.OpSize, opsOf(k.BytesPerRank, k.OpSize)))
	r.acc.perRank = 0
	r.layout = perRank
	return r.run(env, readBack)
}

// CreateStorm is the N-N metadata workload of §V: every rank creates,
// opens, and closes FilesPerRank unique files.  Open time includes file
// creation, as in the paper's Fig. 7/8 methodology.  It runs uncoordinated
// (each file is private), so the env's communicator is used only for
// phase timing.
type CreateStorm struct {
	FilesPerRank int
}

// Name implements Kernel.
func (CreateStorm) Name() string { return "create-storm" }

// Run implements Kernel.  readBack is ignored (metadata only); the open
// time lands in WriteOpen and the close time in WriteClose.
func (c CreateStorm) Run(env *Env, readBack bool) (Result, error) {
	r := once(access{})
	r.layout, r.files, r.calls = perRankFiles, c.FilesPerRank, opensOnly
	return r.run(env, readBack)
}

// CreateStorm100k is the collective create storm behind the
// metadata-at-scale experiments (the regime past the paper's Fig 7/8,
// where per-op metadata RPCs dominate): every round, all ranks
// collectively create-open and close each of Containers containers,
// writing no data.  Unlike CreateStorm (N-N, uncoordinated private
// files), the opens here are collective N-1 creates, which is exactly
// the path the mount's bulk-create batching accelerates — with batching
// off the storm degenerates to one metadata RPC per rank per container.
//
// Open time accumulates in Result.WriteOpen and close time in
// Result.WriteClose; readBack is ignored (metadata only).
type CreateStorm100k struct {
	// Containers is the number of containers hit each round (each is a
	// separate collective create; containers persist across rounds, so
	// later rounds reopen them).
	Containers int
	// Rounds repeats the storm; must be >= 1.  Repeated rounds give a
	// rebalancing pass something to act on: round k+1's dropping creates
	// land wherever round k's hostdirs live now.  Each round is a step:
	// Env.Step runs after its closes, bracketed by barriers (the metadata
	// harness rebalances there).
	Rounds int
}

// Name implements Kernel.
func (CreateStorm100k) Name() string { return "meta-storm" }

// Creates returns the total create count a full run issues, the
// numerator of the per-op open rate.
func (s CreateStorm100k) Creates(ranks int) int64 {
	return int64(ranks) * int64(s.Containers) * int64(s.Rounds)
}

// Run implements Kernel.
func (s CreateStorm100k) Run(env *Env, readBack bool) (Result, error) {
	r := row{layout: perContainer, calls: opensOnly, steps: s.Rounds, containers: s.Containers, stepping: fenced}
	return r.run(env, readBack)
}

// Brownout is the self-healing ablation kernel: a sequence of Steps
// identical write+verify-read rounds, each against a fresh container, so
// per-step aggregate bandwidth becomes a time series the harness can
// plot while it degrades and restores a volume between steps.  Each step
// reads back its neighbour rank's stripe (cross-rank traffic through the
// aggregated index, not an echo of local writes), and every later step
// also re-reads the first block of the step-0 container — the
// shared-input-deck pattern.  New steps' droppings are steered away from
// a browned-out volume at write time, so this pre-brownout container is
// the traffic that exercises hedged index reads and replica failover
// mid-window.
//
// The harness drives the fault schedule through Env.Step: rank 0 runs
// it after every step's trailing barrier, and a barrier at the top of
// the next step aligns the job before any I/O — so injector toggles land
// on deterministic step boundaries.  Phase durations are job-wide, so
// the Result rank 0 hands the hook is the step's.
type Brownout struct {
	// Steps is the number of write+read rounds (one container each).
	Steps int
	// OpsPerRank and OpSize shape each round's strided N-1 pattern.
	OpsPerRank int
	OpSize     int64
}

// Name implements Kernel.
func (b Brownout) Name() string { return "brownout" }

// Run implements Kernel.
func (b Brownout) Run(env *Env, readBack bool) (Result, error) {
	r := once(interleaved(env.Ranks(), b.OpSize, b.OpsPerRank))
	r.layout, r.steps, r.stepping = perStep, b.Steps, aligned
	r.read, r.reread = neighbour, true
	return r.run(env, readBack)
}

// Saturation is the mount-service tenant kernel: one tenant job writes
// Containers separate N-1 files under its own path prefix and, on
// read-back, reopens each and verifies its neighbour rank's stripe.
// Every container's job-wide open duration is recorded by the tenant
// root into the context's obs registry (histograms
// "saturation.open_write_ns" / "saturation.open_read_ns"), which is
// where the saturation harness takes its p99 open-latency signal.
//
// A container whose create or read-open the service's admission gate
// rejects is skipped, not failed: the collective admission protocol
// delivers the same verdict to every rank, so the job stays aligned and
// simply completes less work — the throughput collapse the ablation
// figure is there to show.  Any other error aborts the run.
type Saturation struct {
	// Containers is the number of files this tenant writes (and reads).
	Containers int
	// OpsPerRank and OpSize shape each container's strided N-1 pattern.
	OpsPerRank int
	OpSize     int64
}

// Name implements Kernel.
func (s Saturation) Name() string { return "saturation" }

// Run implements Kernel.
func (s Saturation) Run(env *Env, readBack bool) (Result, error) {
	r := once(interleaved(env.Ranks(), s.OpSize, s.OpsPerRank))
	r.layout, r.containers, r.read, r.tenant = perContainer, s.Containers, neighbour, true
	return r.run(env, readBack)
}
