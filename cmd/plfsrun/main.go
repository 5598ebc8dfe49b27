// Command plfsrun executes a single I/O kernel on the simulated cluster
// and prints its phase times and effective bandwidths — the unit of every
// figure, exposed for ad-hoc exploration.
//
// Examples:
//
//	plfsrun -kernel ior -ranks 256 -plfs
//	plfsrun -kernel mpi-io-test -ranks 1024 -plfs -mode flatten -volumes 10
//	plfsrun -kernel lanl3 -ranks 512 -plfs
//	plfsrun -kernel noncontig -access strided -io-method sieve -ranks 64
//	plfsrun -kernel create-storm -ranks 2048 -files 4 -profile cielo -volumes 10 -plfs
//	plfsrun -kernel meta-storm -ranks 4096 -bulk-create -rebalance
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/harness"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

func main() {
	var (
		kernel   = flag.String("kernel", "mpi-io-test", "workload: mpi-io-test | ior | madbench | pixie3d | aramco | lanl1 | lanl2 | lanl3 | noncontig | n-n | create-storm | meta-storm")
		ranks    = flag.Int("ranks", 64, "number of MPI ranks")
		bytesMB  = flag.Int64("mb", 50, "MB per rank (or total for strong-scaling kernels)")
		opKB     = flag.Int64("opkb", 50, "operation size in KiB (where applicable)")
		files    = flag.Int("files", 1, "files per rank (create-storm)")
		usePLFS  = flag.Bool("plfs", false, "route through PLFS (default: direct access)")
		mode     = flag.String("mode", "parallel", "PLFS index mode: original | flatten | parallel")
		volumes  = flag.Int("volumes", 1, "metadata volumes (federation)")
		profile  = flag.String("profile", "small", "cluster profile: small | cielo")
		cb       = flag.Bool("cb", false, "enable collective buffering")
		seed     = flag.Int64("seed", 1, "simulation seed")
		noRead   = flag.Bool("w", false, "write phase only")
		verify   = flag.Bool("verify", true, "verify read contents")
		stats    = flag.Bool("stats", false, "print the simulated file system's resource report")
		dropC    = flag.Bool("dropcaches", true, "invalidate caches between write and read phases")
		traceF   = flag.String("trace", "", "write a resource time-series CSV to this file")
		faultS   = flag.String("fault", "", "fault injection spec, e.g. 'seed=7,all=0.05,torn=0.01,slow=0:2ms,lose=hostdir.3'")
		metricsF = flag.String("metrics", "", "write op metrics as JSON to this file ('-' = stdout) and print the phase breakdown")
		spansF   = flag.String("spans", "", "write phase spans as CSV to this file ('-' = stdout)")
		retryN   = flag.Int("retry", 1, "PLFS retry attempts for transient backend errors (1 = no retry)")
		partial  = flag.Bool("allow-partial", false, "skip unreadable index shards on read open (degraded results)")
		cksum    = flag.Bool("checksum", false, "checksummed framing: CRC32C trailers on index metadata and per-extent data checksums")
		compress = flag.Bool("index-compress", true, "run-compress index records at writer flush")
		ixCache  = flag.Bool("index-cache", true, "cache aggregated indexes across opens of an unchanged container")
		sieveKB  = flag.Int64("sieve-gap", 0, "sieving read coalescing: merge near-adjacent pieces up to this gap in KiB")
		access   = flag.String("access", "strided", "noncontig kernel file pattern: contig | strided | irregular")
		ioMethod = flag.String("io-method", "auto", "noncontiguous I/O method: auto | naive | sieve | list | twophase")
		tenants  = flag.Int("tenants", 0, "run the multi-tenant mount service instead of -kernel: this many concurrent tenant jobs of -ranks ranks and -files containers each")
		inflight = flag.Int("inflight", 4, "admission cap: concurrent operations the batch class admits (-tenants)")
		budgetMB = flag.Int64("budget-mb", 256, "service cache budget in MB shared across tenants (-tenants)")
		replicaN = flag.Int("replicas", 0, "index replication factor: commit index droppings and the global index to this many volumes (self-healing; <2 = off)")
		hedge    = flag.Bool("hedge", false, "hedged index reads: steer around open volume breakers and reissue slow primaries against replicas")
		brownS   = flag.String("brownout", "", "self-healing demo 'vol:factor[:from:to]': run the brownout harness instead of -kernel (4 volumes, per-step bandwidth series)")
		backend  = flag.String("backend", "posix", "simulated store: posix (cluster file system) | objfs (flat object store, commits via conditional PUT)")
		bulk     = flag.Bool("bulk-create", false, "batch collective creates through the MDS bulk-create RPC (rank 0 ships one batch per volume, Bcasts the verdicts)")
		rebal    = flag.Bool("rebalance", false, "meta-storm: rebalance hot-volume hostdirs between storm rounds (per-volume MDS busy-time feed)")
		rounds   = flag.Int("rounds", 3, "meta-storm rounds")
	)
	flag.Parse()

	// Every kernel divides its bytes into ops, and a world needs a rank.
	if *ranks < 1 || *opKB < 1 {
		fmt.Fprintf(os.Stderr, "plfsrun: -ranks and -opkb must be at least 1 (got %d and %d)\n", *ranks, *opKB)
		os.Exit(2)
	}
	if *retryN < 1 {
		fmt.Fprintf(os.Stderr, "plfsrun: -retry must be at least 1, the first try (got %d)\n", *retryN)
		os.Exit(2)
	}
	if *volumes < 1 {
		fmt.Fprintf(os.Stderr, "plfsrun: -volumes must be at least 1 (got %d)\n", *volumes)
		os.Exit(2)
	}
	switch *backend {
	case harness.BackendPosix, harness.BackendObjfs:
	default:
		fmt.Fprintf(os.Stderr, "plfsrun: unknown backend %q (want posix or objfs)\n", *backend)
		os.Exit(2)
	}

	var cfg pfs.Config
	switch *profile {
	case "small":
		cfg = pfs.SmallCluster()
	case "cielo":
		cfg = pfs.Cielo()
	default:
		fmt.Fprintf(os.Stderr, "plfsrun: unknown profile %q (want small or cielo)\n", *profile)
		os.Exit(2)
	}
	cfg.Volumes = *volumes

	var m plfs.Mode
	switch *mode {
	case "original":
		m = plfs.Original
	case "flatten":
		m = plfs.IndexFlatten
	case "parallel":
		m = plfs.ParallelIndexRead
	default:
		fmt.Fprintf(os.Stderr, "plfsrun: unknown mode %q (want original, flatten or parallel)\n", *mode)
		os.Exit(2)
	}

	// Each mode builds its job and the printer of its outcome, and names
	// the flags it reads; the flags every mode shares are applied once,
	// below.
	bytes := *bytesMB << 20
	op := *opKB << 10
	var job harness.Job
	var show func(harness.Report)
	run, uses := "-kernel "+*kernel, ""
	switch {
	case *brownS != "":
		run, uses = "-brownout", reads["brownout"]
		job, show = brownout(*brownS, *ranks, bytes, op, *hedge, *replicaN)
	case *tenants > 0:
		run, uses = "-tenants", reads["tenants"]
		job, show = serviceTenants(cfg, *tenants, *ranks, *files, bytes, op, *inflight, *budgetMB)
	case *kernel == "meta-storm":
		// With the default -volumes 1 the harness's 4-volume federation
		// applies (skew needs a federation to be skewed across).
		uses = reads["meta-storm"]
		k := workloads.CreateStorm100k{Containers: 5, Rounds: *rounds}
		job = harness.MetaStorm(*ranks, k, *bulk, *rebal)
		if *volumes > 1 {
			job.Cfg = cfg
			uses += " profile"
		}
		show = func(r harness.Report) {
			fmt.Printf("meta-storm: %d ranks, %d rounds (bulk-create=%v rebalance=%v)\n", *ranks, *rounds, *bulk, *rebal)
			fmt.Printf("  creates %d   open %.3fs   rate %.0f creates/s\n",
				k.Creates(*ranks), r.WriteOpen.Seconds(), harness.CreateRate(k, *ranks, r))
			fmt.Printf("  mds load skew (max/median) %.2f   migrations %d   makespan %.3fs\n",
				harness.MDSSkew(r.PFS.MDSBusy), r.Obs[0].Counter("plfs.rebalance.moves").Value(), r.Makespan.Seconds())
		}
	default:
		k, shape, nn, err := kernelOf(*kernel, *ranks, *files, bytes, op, *access, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plfsrun:", err)
			os.Exit(2)
		}
		uses = reads["direct"] + " " + shape
		if *usePLFS {
			run, uses = run+" -plfs", uses+" "+reads["plfs"]
		}
		meth, err := adio.ParseIOMethod(*ioMethod)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plfsrun:", err)
			os.Exit(2)
		}
		opt := plfs.Options{
			IndexMode: m, NumSubdirs: 32,
			AllowPartial:     *partial,
			Checksum:         *cksum,
			NoRunCompression: !*compress,
			NoIndexCache:     !*ixCache,
			SieveGap:         *sieveKB << 10,
			IndexReplicas:    *replicaN,
			HedgedReads:      *hedge,
			BulkCreate:       *bulk,
		}
		if *volumes > 1 {
			if nn {
				opt.SpreadContainers = true
				opt.NumSubdirs = 4
			} else {
				opt.SpreadSubdirs = true
			}
		}
		job = harness.Job{
			Ranks: *ranks, Cfg: cfg, Opt: opt,
			Hints:  adio.Hints{CollectiveBuffering: *cb || *kernel == "lanl3", ProcsPerNode: cfg.ProcsPerNode, IOMethod: meth},
			Kernel: k, UsePLFS: *usePLFS, ReadBack: !*noRead, Verify: *verify, DropCaches: *dropC,
		}
		show = func(r harness.Report) {
			target := "direct"
			if *usePLFS {
				target = fmt.Sprintf("plfs (%s, %d volume(s))", m, *volumes)
			}
			fmt.Printf("%s x %d ranks on %s/%s via %s\n", k.Name(), *ranks, *profile, *backend, target)
			fmt.Printf("  write: open %8.3fs  io %8.3fs  close %8.3fs   %10.1f MB/s effective\n",
				r.WriteOpen.Seconds(), r.Write.Seconds(), r.WriteClose.Seconds(), r.WriteBW(*ranks)/1e6)
			if !*noRead && r.ReadTotal() > 0 {
				fmt.Printf("  read:  open %8.3fs  io %8.3fs  close %8.3fs   %10.1f MB/s effective\n",
					r.ReadOpen.Seconds(), r.Read.Seconds(), r.ReadClose.Seconds(), r.ReadBW(*ranks)/1e6)
			}
			fmt.Printf("  volume: %s per rank\n", volume(r.BytesPerRank))
			if *stats {
				fmt.Println("  " + r.PFS.String())
			}
		}
	}

	// A mode refuses a flag the user set that it would ignore.
	uses += " " + reads["every"]
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(uses), f.Name) {
			fmt.Fprintf(os.Stderr, "plfsrun: %s ignores -%s\n", run, f.Name)
			os.Exit(2)
		}
	})

	o := harness.Options{
		Backend: *backend, Retry: plfs.RetryPolicy{Attempts: *retryN},
		// The brownout and meta-storm printers read counters, so every
		// mode records; -metrics/-spans only decide what gets written.
		Obs: obs.New(),
	}
	if *faultS != "" {
		spec, err := fault.ParseSpec(*faultS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plfsrun:", err)
			os.Exit(2)
		}
		o.Fault = &spec
	}
	job = o.Apply(job)
	job.Seed = *seed
	if *traceF != "" {
		traceFile, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plfsrun:", err)
			os.Exit(1)
		}
		defer traceFile.Close()
		job.TraceEvery = 50 * time.Millisecond
		job.TraceTo = traceFile
	}
	r, err := harness.Run(job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plfsrun:", err)
		os.Exit(1)
	}
	show(r)
	if err := writeMetrics(job.Obs, *metricsF, *spansF); err != nil {
		fmt.Fprintln(os.Stderr, "plfsrun:", err)
		os.Exit(1)
	}
}

// reads names the flags each mode reads.  Every mode reads the "every"
// row; a direct run also reads the flags that shape its kernel's I/O,
// which kernelOf names, and a -plfs run the "plfs" row on top.  A
// direct run keeps its files on the first volume.  The brownout harness
// builds its own 4-volume cluster, fault schedule and retry policy; the
// service harness and the meta-storm run their own kernels through PLFS
// with their own options, and the storm pins the POSIX store.
var reads = map[string]string{
	"every":      "ranks seed trace metrics spans",
	"direct":     "kernel plfs profile backend fault w verify dropcaches stats",
	"plfs":       "mode volumes retry allow-partial checksum index-compress index-cache sieve-gap replicas hedge bulk-create",
	"meta-storm": "kernel volumes fault retry bulk-create rebalance rounds",
	"brownout":   "brownout mb opkb backend hedge replicas",
	"tenants":    "tenants files mb opkb profile volumes backend fault retry inflight budget-mb",
}

// volume spells a rank's bytes in MB (MiB) when they are whole MiB, and
// in KiB, the unit of -opkb, when a kernel's whole ops fall short of that.
func volume(b int64) string {
	if b%(1<<20) == 0 {
		return fmt.Sprintf("%d MB", b>>20)
	}
	return fmt.Sprintf("%d KiB", b>>10)
}

// kernelOf builds a -kernel workload and names the flags that shape its
// I/O; nn reports an N-N kernel (one file per rank), whose containers
// spread across volumes.  Only the kernels that issue collective calls
// read -cb (LANL 3 always buffers), and only the noncontiguous kernel
// issues the accesses -io-method transforms.
func kernelOf(name string, ranks, files int, bytes, op int64, access string, seed int64) (k workloads.Kernel, shape string, nn bool, err error) {
	switch name {
	case "mpi-io-test":
		return workloads.MPIIOTest(bytes, op), "mb opkb cb", false, nil
	case "ior":
		return workloads.IOR(bytes, op), "mb opkb cb", false, nil
	case "madbench":
		return workloads.Madbench{Matrices: 8, MatrixBytes: bytes / 8}, "mb cb", false, nil
	case "pixie3d":
		return workloads.Pixie3D{BytesPerRank: bytes, Vars: 8}, "mb cb", false, nil
	case "aramco":
		return workloads.Aramco{TotalBytes: bytes * int64(ranks) / 4}, "mb cb", false, nil
	case "lanl1":
		return workloads.LANL1(bytes), "mb cb", false, nil
	case "lanl2":
		return workloads.LANL2(bytes), "mb cb", false, nil
	case "lanl3":
		return workloads.LANL3(bytes*int64(ranks), ranks), "mb", false, nil
	case "noncontig":
		acc, err := workloads.ParseAccess(access)
		if err != nil {
			return nil, "", false, err
		}
		return workloads.Noncontig{
			Access: acc, BlockSize: op, BlocksPerRank: max(int(bytes/op/2), 1),
			Steps: 2, MemContig: true, Seed: seed,
		}, "mb opkb cb access io-method", false, nil
	case "n-n":
		return workloads.NNFiles{BytesPerRank: bytes, OpSize: op}, "mb opkb", true, nil
	case "create-storm":
		return workloads.CreateStorm{FilesPerRank: files}, "files", true, nil
	}
	return nil, "", false, fmt.Errorf("unknown kernel %q", name)
}

// brownout builds the self-healing run: one job writing and verifying a
// fresh container per step while one volume browns out for a window in
// the middle (plfsrun -brownout vol:factor[:from:to]).  Its printer
// shows the per-step delivered-bandwidth series, the window averages,
// the hedge counters (the CI smoke greps hedge_wins), the per-volume
// breaker table, and the repair ledger.
func brownout(spec string, ranks int, bytes, op int64, hedge bool, replicas int) (harness.Job, func(harness.Report)) {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 && len(parts) != 4 {
		fmt.Fprintf(os.Stderr, "plfsrun: -brownout wants 'vol:factor[:from:to]', got %q\n", spec)
		os.Exit(2)
	}
	nums := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plfsrun: -brownout %q: %v\n", spec, err)
			os.Exit(2)
		}
		nums[i] = v
	}
	vol, factor, from, to, steps := int(nums[0]), nums[1], 2, 7, 10
	if len(nums) == 4 {
		from, to = int(nums[2]), int(nums[3])
	}
	if to > steps {
		steps = to + 2
	}
	k := workloads.Brownout{Steps: steps, OpsPerRank: max(int(bytes/op/int64(steps)), 1), OpSize: op}
	job, bw := harness.Brownout(k, ranks, vol, factor, from, to, plfs.Options{
		IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4,
		SpreadContainers: true, SpreadSubdirs: true,
		HedgedReads: hedge, IndexReplicas: replicas,
	})
	return job, func(r harness.Report) {
		fmt.Printf("brownout: vol %d x%g over steps [%d,%d) of %d, %d ranks (hedge=%v replicas=%d)\n",
			vol, factor, from, to, steps, ranks, hedge, replicas)
		if factor <= 1 {
			from, to = steps, steps // no window: every step is healthy
		}
		for s, b := range bw {
			mark := " "
			if s >= from && s < to {
				mark = "*"
			}
			fmt.Printf("  step %2d %s %10.1f MB/s\n", s, mark, b/1e6)
		}
		healthy, browned, after := harness.BrownoutWindows(bw, from, to)
		fmt.Printf("  healthy %.1f MB/s   browned %.1f MB/s (%.0f%%)   after %.1f MB/s\n",
			healthy/1e6, browned/1e6, 100*browned/healthy, after/1e6)
		c := r.Obs[0].Counter
		fmt.Printf("self-heal: hedged %d hedge_wins %d failover %d\n",
			c("plfs.read.hedged").Value(), c("plfs.read.hedge_wins").Value(), c("plfs.replica.failover").Value())
		for _, h := range plfs.ReadHealth(r.Service.Snapshot()) {
			fmt.Printf("  health %-12s state=%-9s opens=%d probes=%d probe_ok=%d failures=%d slow=%d\n",
				h.Root, h.State, h.Opens, h.Probes, h.ProbeOK, h.Failures, h.SlowOps)
		}
		rc := r.Service.Counter
		fmt.Printf("  repair: ticks=%d found=%d repaired=%d unrepairable=%d deferred=%d\n",
			rc("plfs.repair.ticks").Value(), rc("plfs.repair.found").Value(), rc("plfs.repair.repaired").Value(),
			rc("plfs.repair.unrepairable").Value(), rc("plfs.repair.deferred").Value())
	}
}

// serviceTenants builds the multi-tenant mount service run: n identical
// tenant jobs of ranksPer ranks each, every job writing and verifying
// containers files, all sharing one cache budget and one "batch"
// admission class (plfsrun -tenants).  Its printer shows the per-tenant
// admission ledger and p99 open latency alongside the aggregate
// throughput.
func serviceTenants(cfg pfs.Config, n, ranksPer, containers int, bytes, op int64, inflight int, budgetMB int64) (harness.Job, func(harness.Report)) {
	k := workloads.Saturation{Containers: containers, OpsPerRank: max(int(bytes/op/int64(containers)), 1), OpSize: op}
	return harness.Tenants(cfg, n, ranksPer, k, inflight, budgetMB<<20), func(r harness.Report) {
		fmt.Printf("mount service: %d tenants x %d ranks, %d container(s) each (batch cap %d in flight, cache %d MB)\n",
			n, ranksPer, containers, inflight, budgetMB)
		p99s, opens := make([]time.Duration, n), make([]int64, n)
		var worst time.Duration
		for i := range p99s {
			p99s[i], opens[i] = harness.OpenP99(r.Obs[i])
			worst = max(worst, p99s[i])
		}
		fmt.Printf("  makespan %.3fs   aggregate %.1f MB/s   worst-tenant p99 open %.3fs\n",
			r.Makespan.Seconds(), float64(r.Bytes)/r.Makespan.Seconds()/1e6, worst.Seconds())
		c := func(name string) int64 { return r.Service.Counter(name).Value() }
		for i := range p99s {
			p := fmt.Sprintf("plfs.svc.tenant.t%d.", i)
			fmt.Printf("  %-8s p99 open %7.3fs  opens %4d  admitted %5d  completed %5d  rejected %5d  retries %5d\n",
				fmt.Sprintf("t%d", i), p99s[i].Seconds(), opens[i],
				c(p+"admitted"), c(p+"completed"), c(p+"rejected"), c(p+"retries"))
		}
		fmt.Printf("  admission: admitted %d = completed %d + rejected %d\n",
			c("plfs.svc.admitted"), c("plfs.svc.completed"), c("plfs.svc.rejected"))
		g := func(name string) int64 { return int64(r.Service.Gauge(name).Value()) }
		fmt.Printf("  cache: used %d/%d KB, evicted %d entries (%d KB)\n",
			g("plfs.econ.used_bytes")>>10, g("plfs.econ.budget_bytes")>>10,
			g("plfs.econ.evictions"), g("plfs.econ.evicted_bytes")>>10)
	}
}

// writeMetrics emits the registry's snapshot (JSON) and spans (CSV) to
// the requested destinations ("-" = stdout, "" = skip) and prints the
// phase breakdown whenever metrics were requested.
func writeMetrics(reg *obs.Registry, metricsF, spansF string) error {
	emit := func(dst string, write func(io.Writer) error) error {
		if dst == "" {
			return nil
		}
		if dst == "-" {
			return write(os.Stdout)
		}
		f, err := os.Create(dst)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := emit(metricsF, reg.WriteJSON); err != nil {
		return err
	}
	if err := emit(spansF, reg.WriteSpansCSV); err != nil {
		return err
	}
	if metricsF != "" {
		fmt.Print(obs.RenderBreakdown(reg.Breakdown()))
	}
	return nil
}
