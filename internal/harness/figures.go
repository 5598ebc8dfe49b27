package harness

import (
	"fmt"
	"time"

	"plfs/internal/adio"
	"plfs/internal/fault"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/stats"
	"plfs/internal/workloads"
)

// Figures returns the full reproduction suite in paper order: an ordered
// table, not a map, so listings, CSVs and benchmarks come out in this
// order.  It is built on call rather than at package init, so a binary
// that only runs jobs does not link the table.
func Figures() []Figure {
	return []Figure{
		{
			// Our kernels stand in for the paper's application set (see
			// DESIGN.md).
			ID: "fig2", Title: "Summary of N-1 write speedups through PLFS",
			Panels:   []Panel{{"Figure 2: N-1 write speedup through PLFS (x = processes)", "procs", "write speedup (direct time / PLFS time)"}},
			Points:   fig2Points,
			Headline: []Metric{{"max-speedup-x", peak(0)}},
		},
		{
			ID: "fig4", Title: "Read scaling: Original vs Index Flatten vs Parallel Index Read",
			Panels: []Panel{
				{"Figure 4a: read open time (index aggregation)", "procs", "seconds"},
				{"Figure 4b: effective read bandwidth", "procs", "MB/s"},
				{"Figure 4c: write close time", "procs", "seconds"},
				{"Figure 4d: effective write bandwidth", "procs", "MB/s"},
			},
			Points: func(o Options) []Point {
				modes := []plfs.Mode{plfs.Original, plfs.IndexFlatten, plfs.ParallelIndexRead}
				return grid(o.procCounts(), []string{"original", "index-flatten", "parallel-index-read"}, func(procs, s int) Job {
					return o.n1Job(procs, n1Opt(modes[s], 1), true)
				}, read{0, "", readOpen}, read{1, "", readBW}, read{2, "", writeClose}, read{3, "", writeBW})
			},
			Headline: []Metric{
				{"original-open-sec", last(0, "original")},
				{"flatten-read-MBps", last(1, "index-flatten")},
				{"flatten-close-sec", last(2, "index-flatten")},
				{"flatten-write-MBps", last(3, "index-flatten")},
			},
		},
		fig5("fig5a", "pixie3d", "Pixie3D read bandwidth (PLFS vs direct)"),
		fig5("fig5b", "aramco", "ARAMCO read bandwidth (PLFS vs direct)"),
		fig5("fig5c", "ior", "IOR read bandwidth (PLFS vs direct)"),
		fig5("fig5d", "madbench", "MADbench read bandwidth (PLFS vs direct)"),
		fig5("fig5e", "lanl1", "LANL 1 read bandwidth (PLFS vs direct)"),
		fig5("fig5f", "lanl3", "LANL 3 read bandwidth (PLFS vs direct, collective buffering)"),
		{
			ID: "fig7", Title: "N-N metadata: open/close time vs files, varying MDS count",
			Panels: []Panel{
				{"Figure 7a: N-N open time", "files", "seconds"},
				{"Figure 7b: N-N close time", "files", "seconds"},
			},
			Points: func(o Options) []Point {
				vols := []int{1, 3, 6, 9, 0} // 0 = direct
				return grid(pick(o, []int{32, 64, 128}, []int{256, 512, 1024, 2048}), []string{"plfs-1", "plfs-3", "plfs-6", "plfs-9", "w/o-plfs"}, func(nf, s int) Job {
					ranks := min(nf, pick(o, 64, 1024))
					cfg := pfs.SmallCluster()
					if vols[s] > 0 {
						cfg.Volumes = vols[s]
					}
					return Job{Ranks: ranks, Cfg: cfg, Opt: nnOpt(vols[s]), Kernel: workloads.CreateStorm{FilesPerRank: nf / ranks}, UsePLFS: vols[s] > 0}
				}, read{0, "", writeOpen}, read{1, "", writeClose})
			},
			Headline: []Metric{
				{"plfs9-open-speedup-x", ratio(last(0, "w/o-plfs"), last(0, "plfs-9"))},
				{"direct-close-sec", last(1, "w/o-plfs")},
			},
		},
		{
			ID: "fig8a", Title: "Large-scale read bandwidth (Cielo profile)",
			Panels: []Panel{{"Figure 8a: large-scale effective read bandwidth", "procs", "MB/s"}},
			Points: func(o Options) []Point {
				perProc, op := pick(o, int64(8<<20), 50<<20), pick(o, int64(2<<20), 10<<20)
				cfg := o.cielo()
				cfg.Volumes = 10
				nn := workloads.NNFiles{BytesPerRank: perProc, OpSize: op}
				kernels := []workloads.Kernel{nn, nn, workloads.MPIIOTest(perProc, op)}
				opts := []plfs.Options{{}, nnOpt(10), n1Opt(plfs.ParallelIndexRead, 10)}
				return grid(pick(o, []int{64, 128, 256}, []int{4096, 8192, 16384, 32768, 65536}), []string{"n-n w/o plfs", "n-n plfs", "n-1 plfs"}, func(procs, s int) Job {
					return Job{
						Ranks: procs, Cfg: cfg, Opt: opts[s], Kernel: kernels[s], UsePLFS: s > 0, ReadBack: true,
						DropCaches: true, // a restart reads from cold caches
					}
				}, read{0, "", readBW})
			},
			Headline: []Metric{{"n1-plfs-MBps", last(0, "n-1 plfs")}},
		},
		{
			ID: "fig8b", Title: "Large-scale N-N open time: PLFS-1 / PLFS-10 / PLFS-20",
			Panels: []Panel{{"Figure 8b: large-scale N-N open time", "procs", "seconds"}},
			Points: func(o Options) []Point {
				vols := []int{1, 10, 20}
				return grid(o.metaProcCounts(), []string{"plfs-1", "plfs-10", "plfs-20"}, func(procs, s int) Job {
					return o.fig8Meta(procs, vols[s])
				}, read{0, "", writeOpen})
			},
			Headline: []Metric{{"plfs10-vs-plfs1-x", ratio(last(0, "plfs-1"), last(0, "plfs-10"))}},
		},
		{
			// Container creation for a single shared file: federation only
			// helps once the per-writer metadata load is large.
			ID: "fig8c", Title: "Large-scale N-1 open time: PLFS-1 vs PLFS-10",
			Panels: []Panel{{"Figure 8c: large-scale N-1 open time", "procs", "seconds"}},
			Points: func(o Options) []Point {
				vols := []int{1, 10}
				return grid(o.metaProcCounts(), []string{"plfs-1", "plfs-10"}, func(procs, s int) Job {
					cfg := o.cielo()
					cfg.Volumes = vols[s]
					return Job{Ranks: procs, Cfg: cfg, Opt: n1Opt(plfs.ParallelIndexRead, vols[s]), Kernel: workloads.MPIIOTest(4<<20, 1<<20), UsePLFS: true}
				}, read{0, "", writeOpen})
			},
			Headline: []Metric{{"plfs10-open-sec", last(0, "plfs-10")}},
		},
		{
			// The 17x headline: the speedup series is the ratio of the two
			// series' means at each x.
			ID: "fig8d", Title: "Large-scale N-N open: PLFS-10 vs direct (17x claim)",
			Panels: []Panel{{"Figure 8d: N-N open, PLFS-10 vs direct", "procs", "seconds"}},
			Points: func(o Options) (pts []Point) {
				for _, procs := range o.metaProcCounts() {
					x := float64(procs)
					direct, pl := o.fig8Meta(procs, 0), o.fig8Meta(procs, 10)
					pts = append(pts, Point{Series: "speedup", X: x, Ranks: procs,
						Measure: func(o Options, seed int64) ([]Cell, error) {
							d, p, err := o.pair(direct, pl, seed)
							return []Cell{{0, "w/o-plfs", x, d.WriteOpen.Seconds()}, {0, "plfs-10", x, p.WriteOpen.Seconds()}}, err
						},
						Derive: func(s []stats.Sample) Cell { return Cell{0, "speedup", x, stats.Speedup(s[0].Mean(), s[1].Mean())} },
					})
				}
				return pts
			},
			Headline: []Metric{{"open-speedup-x", last(0, "speedup")}},
		},
		{
			// A threshold below the per-process entry count forces the
			// overflow fallback, trading the cheap broadcast-open for a
			// parallel read.
			ID: "ablation-flatten", Title: "Ablation: Index Flatten buffer threshold",
			Panels: []Panel{{"Ablation: Index Flatten threshold (entries per process)", "threshold", "seconds"}},
			Points: func(o Options) []Point {
				nb, op := o.n1Bytes()
				entries := float64(nb / op) // per-process index entries the workload makes
				thresholds := []int{int(entries * 0.25), int(entries * 0.5), int(entries * 2), int(entries * 8)}
				return grid(thresholds, []string{"read-open"}, func(thr, _ int) Job {
					opt := n1Opt(plfs.IndexFlatten, 1)
					opt.FlattenThreshold = thr
					return o.n1Job(o.ablationRanks(), opt, true)
				}, read{0, "", readOpen}, read{0, "write-close", writeClose})
			},
			Headline: []Metric{{"overflow-open-x", ratio(first(0, "read-open"), last(0, "read-open"))}},
		},
		{
			// From a flat single group (the leader hierarchy degenerates)
			// through the balanced sqrt default to per-process groups.
			ID: "ablation-groups", Title: "Ablation: Parallel Index Read group size",
			Panels: []Panel{{"Ablation: Parallel Index Read group size", "group size", "read open seconds"}},
			Points: func(o Options) []Point {
				ranks := o.ablationRanks()
				return grid([]int{1, pick(o, 6, 16), ranks / 4, ranks}, []string{"read-open"}, func(gs, _ int) Job {
					opt := n1Opt(plfs.ParallelIndexRead, 1)
					opt.GroupSize = gs
					return o.n1Job(ranks, opt, true)
				}, read{0, "", readOpen})
			},
			Headline: []Metric{{"group1-open-sec", first(0, "read-open")}},
		},
		{
			// Coarser range-lock units mean more false sharing among strided
			// direct N-1 writers — the serialization PLFS sidesteps.
			ID: "ablation-lockunit", Title: "Ablation: direct N-1 write vs lock-unit size",
			Panels: []Panel{{"Ablation: direct N-1 write bandwidth vs lock unit", "lock unit KiB", "MB/s"}},
			Points: func(o Options) []Point {
				return grid([]int{16, 64, 256, 1024}, []string{"direct-write"}, func(kib, _ int) Job {
					j := o.n1Job(o.ablationRanks(), plfs.Options{}, false)
					j.UsePLFS, j.Cfg.LockUnit = false, int64(kib)<<10
					return j
				}, read{0, "", writeBW})
			},
			Headline: []Metric{{"lock-unit-write-x", ratio(first(0, "direct-write"), last(0, "direct-write"))}},
		},
		{
			ID: "ablation-spread", Title: "Ablation: federation spread modes",
			Panels: []Panel{{"Ablation: federation spread mode (N-N open, 10 volumes)", "procs", "seconds"}},
			Points: func(o Options) []Point {
				cfg := o.cielo()
				cfg.Volumes = 10
				pts := grid([]int{pick(o, 128, 2048)}, []string{"none", "containers", "subdirs", "both"}, func(procs, s int) Job {
					opt := plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4, SpreadContainers: s%2 == 1, SpreadSubdirs: s >= 2}
					return Job{Ranks: procs, Cfg: cfg, Opt: opt, Kernel: workloads.CreateStorm{FilesPerRank: 1}, UsePLFS: true}
				}, read{0, "", writeOpen})
				for i := range pts {
					pts[i].Ranks = 0 // every repetition, even at paper scale
				}
				return pts
			},
			Headline: []Metric{{"spread-open-speedup-x", ratio(last(0, "none"), last(0, "both"))}},
		},
		{
			// A degraded disk group (25% of nominal bandwidth, e.g. a
			// rebuilding RAID set): fair-share striping drags every large
			// transfer through the slow group, so both paths feel it, and the
			// ablation quantifies how much of PLFS's advantage survives a sick
			// disk.  The degraded case also runs the fault injector — per-op
			// latency on both paths, and transient errors absorbed by the
			// mount's retry policy on the PLFS path only — so the figure shows
			// what resilience costs.
			ID: "ablation-degraded", Title: "Ablation: one degraded OST group",
			Pins: "-backend: posix, since a degraded OST group is a POSIX cluster property; " +
				"-fault and -retry on the degraded points: their own (latency on both paths, transients where PLFS retries)",
			Panels: []Panel{{"Ablation: write bandwidth with one degraded OST group (25% speed)", "degraded (0=no,1=yes)", "MB/s"}},
			Points: func(o Options) []Point {
				pts := grid([]int{0, 1}, []string{"direct", "plfs"}, func(degraded, s int) Job {
					j := o.n1Job(o.ablationRanks(), n1Opt(plfs.ParallelIndexRead, 1), false)
					j.UsePLFS, j.Backend = s == 1, BackendPosix
					if degraded == 1 {
						j.Cfg.DegradedGroup, j.Cfg.DegradedFactor = 0, 0.25
					}
					return j
				}, read{0, "", writeBW})
				for i := range pts[2:] {
					measure, plfsOn := pts[2+i].Measure, i == 1
					pts[2+i].Measure = func(o Options, seed int64) ([]Cell, error) {
						// The degraded points bring their own fault spec, drawn
						// from the repetition's seed.
						o.Fault = &fault.Spec{Seed: seed, Delay: 200 * time.Microsecond}
						if plfsOn {
							// Only the PLFS path can absorb transient errors;
							// direct I/O has no retry layer.
							o.Fault.P = map[fault.Op]float64{fault.OpOpen: 0.02, fault.OpRead: 0.02, fault.OpAppend: 0.02}
							o.Retry = plfs.RetryPolicy{Attempts: 5}
						}
						return measure(o, seed)
					}
				}
				return pts
			},
			Headline: []Metric{{"degraded-plfs-vs-direct-x", ratio(last(0, "plfs"), last(0, "direct"))}},
		},
		{
			// The hashing charge of checksummed framing (CRC32C trailers on
			// index droppings, the global index and the recovery footer, plus
			// one CRC32C per data extent) rides the virtual clock
			// (plfs's checksumCPUPerMB), so the figure shows the end-to-end
			// price of integrity.
			ID: "ablation-checksum", Title: "Ablation: checksummed framing overhead",
			Panels: []Panel{
				{"Ablation: checksummed framing overhead (N-1 write)", "checksum (0=off,1=on)", "MB/s"},
				{"Ablation: checksummed framing close cost", "checksum (0=off,1=on)", "close seconds"},
			},
			Points: func(o Options) []Point {
				return grid([]int{0, 1}, []string{"plfs"}, func(on, _ int) Job {
					opt := n1Opt(plfs.IndexFlatten, 1)
					opt.Checksum = on == 1
					return o.n1Job(o.ablationRanks(), opt, false)
				}, read{0, "", writeBW}, read{1, "", writeClose})
			},
			Headline: []Metric{{"checksum-write-cost-x", ratio(first(0, "plfs"), last(0, "plfs"))}},
		},
		{
			// The Fig. 5 read-open decomposed into its span phases — list
			// (container listing / global-index probe), decode (shard read +
			// parse), merge (index resolve), exchange (collective transport)
			// (DESIGN.md §11).  Each value is the slowest rank's span: spans
			// ride the virtual clock, so the maximum is the phase's
			// contribution to critical-path open time.
			ID: "ablation-phases", Title: "Ablation: read-open phase breakdown (list/decode/merge/exchange)", OwnObs: true,
			Panels: []Panel{{"Ablation: read-open phase breakdown (Fig. 5 IOR kernel)", "procs", "seconds"}},
			Points: func(o Options) []Point {
				var reads []read
				for _, ph := range []string{"open", "list", "decode", "merge", "exchange"} {
					reads = append(reads, read{0, ph, func(r Report, _ int) float64 { return r.Obs[0].Histogram("span." + ph).Max().Seconds() }})
				}
				return grid(o.kernelProcCounts(), []string{"open"}, func(procs, _ int) Job {
					return o.fig5Job("ior", procs, true)
				}, reads...)
			},
			Headline: []Metric{{"open-sec", last(0, "open")}},
		},
		{
			// Strided N-1 is run compression's best case — each writer's
			// whole checkpoint collapses to one run record — so the index
			// bytes read at open show the O(1)-per-writer property.
			ID: "ablation-index-compress", Title: "Ablation: run-compressed index records", OwnObs: true,
			Panels: []Panel{
				{"Ablation: run-compressed index (read open)", "compress (0=off,1=on)", "seconds"},
				{"Ablation: run-compressed index (index bytes read at open)", "compress (0=off,1=on)", "KiB"},
			},
			Points: func(o Options) []Point {
				return grid([]int{0, 1}, []string{"read-open"}, func(compress, _ int) Job {
					opt := n1Opt(plfs.IndexFlatten, 1)
					opt.NoRunCompression = compress == 0
					return o.n1Job(o.ablationRanks(), opt, true)
				}, read{0, "", readOpen}, read{1, "index-bytes", counter("plfs.open.index_bytes", 1024)})
			},
			Headline: []Metric{{"index-shrink-x", ratio(first(1, "index-bytes"), last(1, "index-bytes"))}},
		},
		{
			// The reopen kernel revisits an unchanged container, as analysis
			// tools do.  With the cache every open after the first skips
			// aggregation (plfs.index.cache.hit counts them); without it each
			// open pays the full index read.
			ID: "ablation-index-cache", Title: "Ablation: cross-open index cache (reopen kernel)", OwnObs: true,
			Panels: []Panel{
				{"Ablation: cross-open index cache (total open time, 8 reopens)", "cache (0=off,1=on)", "seconds"},
				{"Ablation: cross-open index cache (index dropping reads)", "cache (0=off,1=on)", "reads"},
			},
			Points: func(o Options) []Point {
				const reopens = 8
				nb, op := o.n1Bytes()
				pts := grid([]int{0, 1}, []string{"read-open-total"}, func(cache, _ int) Job {
					opt := n1Opt(plfs.ParallelIndexRead, 1)
					opt.NoIndexCache = cache == 0
					j := o.n1Job(o.ablationRanks(), opt, true)
					j.Kernel, j.DropCaches = workloads.ReopenN1(nb, op, reopens), true
					return j
				}, read{0, "", readOpen}, read{1, "index-reads", counter("plfs.open.index_reads", 1)})
				on := pts[1].Measure
				pts[1].Measure = func(o Options, seed int64) ([]Cell, error) {
					cells, err := on(o, seed)
					if err == nil && o.Obs.Counter("plfs.index.cache.hit").Value() == 0 {
						err = fmt.Errorf("no cache hits across %d reopens", reopens)
					}
					return cells, err
				}
				return pts
			},
			Headline: []Metric{{"reopen-speedup-x", ratio(first(0, "read-open-total"), last(0, "read-open-total"))}},
		},
		{
			// The restart kernel's overwrite round leaves op-sized dead gaps
			// between each dropping's live extents.  A gap at or above the op
			// size merges neighbours into one large read per dropping; the
			// second panel reports the price — physical read amplification
			// (plfs.read.phys_bytes over plfs.read.bytes).
			ID: "ablation-sieve-gap", Title: "Ablation: sieving read coalescing gap", OwnObs: true,
			Panels: []Panel{
				{"Ablation: sieving read coalescing (restart read time)", "gap KiB", "seconds"},
				{"Ablation: sieving read coalescing (read amplification)", "gap KiB", "phys bytes / logical bytes"},
			},
			Points: func(o Options) []Point {
				nb, op := o.n1Bytes()
				return grid([]int{0, int(op/2) >> 10, int(op) >> 10, int(8*op) >> 10}, []string{"read"}, func(kib, _ int) Job {
					opt := n1Opt(plfs.ParallelIndexRead, 1)
					opt.SieveGap = int64(kib) << 10
					j := o.n1Job(o.ablationRanks(), opt, true)
					j.Kernel, j.DropCaches = workloads.RestartN1(nb, op), true
					return j
				}, read{0, "", readTime}, read{1, "amplification", amplification})
			},
			Headline: []Metric{{"sieve-read-speedup-x", ratio(first(0, "read"), last(0, "read"))}},
		},
		{
			// Thakur et al.'s method comparison for noncontiguous access,
			// with the contiguous write as the x=4 baseline.  Small strided
			// blocks from memory-contiguous buffers are the quadrant where the
			// method matters most.  On the seek-dominated direct path the
			// classic ordering emerges — naive < sieve < list <= two-phase —
			// while PLFS's log structure turns every method into batched
			// appends, so its series is flat and sits near the contiguous
			// baseline (the paper's transformative argument restated at the
			// ADIO layer).
			ID: "ablation-noncontig", Title: "Ablation: noncontiguous I/O method (naive/sieve/list/twophase)",
			Panels: []Panel{{"Ablation: noncontiguous write method (0=naive 1=sieve 2=list 3=twophase 4=contig)", "method", "write MB/s"}},
			Points: func(o Options) []Point {
				methods := []adio.IOMethod{adio.MethodNaive, adio.MethodSieve, adio.MethodList, adio.MethodTwoPhase, adio.MethodList}
				return grid([]int{0, 1, 2, 3, 4}, []string{"ufs", "plfs"}, func(m, s int) Job {
					access := workloads.AccessStrided
					if m == 4 {
						access = workloads.AccessContig
					}
					return Job{
						Ranks: pick(o, 32, 256), Cfg: pfs.SmallCluster(), Opt: n1Opt(plfs.ParallelIndexRead, 1),
						Kernel: workloads.Noncontig{
							Access: access, BlockSize: 2 << 10, BlocksPerRank: pick(o, 64, 256),
							Steps: 2, MemContig: true, Seed: 7,
						},
						Hints: adio.Hints{IOMethod: methods[m]}, UsePLFS: s == 1,
					}
				}, read{0, "", writeBW})
			},
			Headline: []Metric{{"contig-vs-naive-x", ratio(last(0, "ufs"), first(0, "ufs"))}},
		},
		{
			ID: "ablation-tenants", Title: "Ablation: mount-service saturation vs tenant count",
			Panels: []Panel{
				{"Ablation: mount-service saturation — aggregate throughput", "tenants", "MB/s"},
				{"Ablation: mount-service saturation — p99 container open", "tenants", "seconds"},
				{"Ablation: mount-service saturation — admission outcomes", "tenants", "operations"},
			},
			Points: func(o Options) []Point {
				k := workloads.Saturation{Containers: pick(o, 3, 4), OpsPerRank: 8, OpSize: 64 << 10}
				return grid(pick(o, []int{1, 2, 4, 8}, []int{1, 2, 4, 8, 16, 32}), []string{"aggregate"}, func(n, _ int) Job {
					// The batch gate admits four concurrent jobs' operations: a
					// tenant runs one collective op at a time, so the sweep
					// crosses the admission wall at four tenants and the p99
					// curve splits into "queueing" and "rejected" regimes.
					return Tenants(pfs.SmallCluster(), n, pick(o, 4, 16), k, 4, 32<<20)
				}, read{0, "", func(r Report, _ int) float64 { return float64(r.Bytes) / r.Makespan.Seconds() / 1e6 }}, read{1, "worst-tenant", worstP99},
					read{2, "admitted", serviceCounter("plfs.svc.admitted")}, read{2, "rejected", serviceCounter("plfs.svc.rejected")})
			},
			Headline: []Metric{{"worst-p99-open-sec", last(1, "worst-tenant")}},
		},
		{
			// The self-healing claim reads straight off the table: the
			// hedged+replicated series holds most of the healthy bandwidth
			// through the browned window (the breaker steers placement and
			// reads around the sick volume) and returns to baseline once
			// half-open probes close the breaker; the naive series collapses.
			ID: "ablation-brownout", Title: "Ablation: brownout self-healing (naive/hedged/hedged+replicated)", OwnObs: true,
			Pins: "-fault and -retry: its own (the brownout schedule, and the retry policy that absorbs it)",
			Panels: []Panel{
				{"Ablation: brownout self-healing — per-step delivered bandwidth", "step", "MB/s"},
				{"Ablation: brownout self-healing — hedge and repair activity", "variant (0=naive 1=hedged 2=hedged+replicated)", "count"},
			},
			Points: func(o Options) (pts []Point) {
				k := workloads.Brownout{Steps: pick(o, 10, 12), OpsPerRank: pick(o, 8, 16), OpSize: 64 << 10}
				for vi, name := range []string{"naive", "hedged", "hedged+replicated"} {
					x := float64(vi)
					opt := plfs.Options{
						IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4, SpreadContainers: true, SpreadSubdirs: true,
						HedgedReads: vi > 0, IndexReplicas: []int{0, 0, 2}[vi],
					}
					pts = append(pts, Point{Series: name, X: x, Measure: func(o Options, seed int64) ([]Cell, error) {
						j, bw := Brownout(k, pick(o, 4, 16), 0, 256, pick(o, 2, 3), pick(o, 7, 8), opt)
						cells, err := take(o, j, seed, name, x, []read{
							{1, "hedged", counter("plfs.read.hedged", 1)},
							{1, "hedge-wins", counter("plfs.read.hedge_wins", 1)},
							{1, "repaired", serviceCounter("plfs.repair.repaired")},
						})
						steps := make([]Cell, len(bw))
						for s, b := range bw {
							steps[s] = Cell{0, name, float64(s), b / 1e6}
						}
						return append(steps, cells...), err
					}})
				}
				return pts
			},
			Headline: []Metric{{"hedge-wins", last(1, "hedge-wins")}},
		},
		{
			// The same PLFS workloads over the POSIX cluster and the flat
			// object store.  On objfs the N-N create storm no longer
			// serializes on the shared hostdir's create lock (a create is one
			// conditional PUT against a flat keyspace), and commits no longer
			// funnel through rename (close time carries the commit protocol).
			// Two costs replace them: the restart's hostdir listing becomes a
			// paged prefix scan priced per key scanned — it grows with the
			// dropping count, the price paid for losing directories — and
			// every dropping carries per-object metadata on the KV tier
			// instead of inode state amortized by the directory.
			ID: "ablation-backend", Title: "Ablation: posix vs object-store backend (create storm, prefix scan)",
			Pins: "-backend: the figure's axis (posix and objfs)",
			Panels: []Panel{
				{"Ablation: backend — N-N create storm (directory create serialization)", "files", "seconds"},
				{"Ablation: backend — N-1 restart read-open (readdir vs prefix scan)", "procs", "seconds"},
			},
			Points: func(o Options) []Point {
				backends := []string{BackendPosix, BackendObjfs}
				storm := grid(pick(o, []int{32, 64, 128}, []int{256, 512, 1024}), backends, func(nf, s int) Job {
					r := min(pick(o, 32, 128), nf)
					return Job{Ranks: r, Cfg: pfs.SmallCluster(), Opt: nnOpt(1), Backend: backends[s], Kernel: workloads.CreateStorm{FilesPerRank: nf / r}, UsePLFS: true}
				}, read{0, "-open", writeOpen}, read{0, "-close", writeClose})
				return append(storm, grid(o.procCounts(), backends, func(procs, s int) Job {
					j := o.n1Job(procs, n1Opt(plfs.ParallelIndexRead, 1), true)
					j.DropCaches, j.Backend = true, backends[s]
					return j
				}, read{1, "", readOpen})...)
			},
			Headline: []Metric{{"objfs-create-speedup-x", ratio(last(0, "posix-open"), last(0, "objfs-open"))}},
		},
		{
			// Static hashing vs bulk-create batching vs batching plus dynamic
			// volume rebalancing.  Five containers over four volumes: static
			// hashing places two on one volume — the hot-volume imbalance
			// rebalancing repairs.
			ID: "ablation-metadata", Title: "Ablation: metadata at scale (static vs batched vs batched+rebalanced)",
			Pins: "-backend: posix, since its skew is POSIX MDS busy time",
			Panels: []Panel{
				{"Ablation: metadata at scale — collective create rate", "procs", "creates/s"},
				{"Ablation: metadata at scale — per-volume MDS load skew (max/median)", "procs", "skew"},
			},
			Points: func(o Options) []Point {
				k := workloads.CreateStorm100k{Containers: 5, Rounds: 3}
				return grid(pick(o, []int{64, 256}, []int{8192, 32768, 102400}), []string{"static", "batched", "batched+rebalanced"}, func(n, s int) Job {
					return MetaStorm(n, k, s > 0, s == 2)
				}, read{0, "", func(r Report, n int) float64 { return CreateRate(k, n, r) }},
					read{1, "", func(r Report, _ int) float64 { return MDSSkew(r.PFS.MDSBusy) }})
			},
			Headline: []Metric{{"batched-rate-x", ratio(last(0, "batched"), last(0, "static"))}},
		},
	}
}

// procCounts is the x-axis of the small-cluster figures.
func (o Options) procCounts() []int {
	return pick(o, []int{8, 16, 32, 64}, []int{16, 64, 256, 1024, 2048})
}

// kernelProcCounts is the x-axis of the Fig. 5 kernel studies.
func (o Options) kernelProcCounts() []int {
	return pick(o, []int{8, 16, 32}, []int{48, 96, 192, 384, 768})
}

// metaProcCounts is the x-axis of the large metadata figures.
func (o Options) metaProcCounts() []int {
	return pick(o, []int{64, 128, 256}, []int{2048, 4096, 8192, 16384, 32768})
}

// ablationRanks is the job size of the fixed-size ablations.
func (o Options) ablationRanks() int { return pick(o, 32, 256) }

// n1Job is MPI-IO Test's strided N-1 checkpoint through a PLFS mount
// with opt on the small cluster, read back when readBack is set.
func (o Options) n1Job(ranks int, opt plfs.Options, readBack bool) Job {
	nb, op := o.n1Bytes()
	return Job{
		Ranks: ranks, Cfg: pfs.SmallCluster(), Opt: opt,
		Kernel: workloads.MPIIOTest(nb, op), UsePLFS: true, ReadBack: readBack,
	}
}

// fig8Meta is a Cielo-profile N-N create storm on vols metadata volumes
// (0 = direct).
func (o Options) fig8Meta(procs, vols int) Job {
	cfg := o.cielo()
	if vols > 0 {
		cfg.Volumes = vols
	}
	return Job{
		Ranks: procs, Cfg: cfg, Opt: nnOpt(vols),
		Kernel: workloads.CreateStorm{FilesPerRank: 1}, UsePLFS: vols > 0,
	}
}

// pair runs a and b with the same seed.
func (o Options) pair(a, b Job, seed int64) (Report, Report, error) {
	a.Seed, b.Seed = seed, seed
	ra, err := Run(o.Apply(a))
	if err != nil {
		return ra, Report{}, err
	}
	rb, err := Run(o.Apply(b))
	return ra, rb, err
}

// fig2Points pairs each kernel's direct write with its PLFS write.
func fig2Points(o Options) (pts []Point) {
	ranks := pick(o, 32, 512)
	nb, nop := o.n1Bytes()
	big := pick(o, int64(64<<20), 16<<30)
	for _, k := range []struct {
		k     workloads.Kernel
		hints adio.Hints
	}{
		{workloads.MPIIOTest(nb, nop), adio.Hints{}},
		{workloads.LANL1(nb), adio.Hints{}},
		{workloads.LANL2(nb / 2), adio.Hints{}},
		{workloads.IOR(nb, 1<<20), adio.Hints{}},
		{workloads.Madbench{Matrices: 4, MatrixBytes: nb / 4}, adio.Hints{}},
		{workloads.Pixie3D{BytesPerRank: nb, Vars: 8}, adio.Hints{}},
		{workloads.Aramco{TotalBytes: big}, adio.Hints{}},
		{workloads.LANL3(big, ranks), adio.Hints{CollectiveBuffering: true, ProcsPerNode: 16}},
	} {
		name, x := k.k.Name(), float64(ranks)
		direct := Job{Ranks: ranks, Cfg: pfs.SmallCluster(), Kernel: k.k, Hints: k.hints}
		pl := direct
		pl.Opt, pl.UsePLFS = n1Opt(plfs.ParallelIndexRead, 1), true
		pts = append(pts, Point{Series: name, X: x, Measure: func(o Options, seed int64) ([]Cell, error) {
			d, p, err := o.pair(direct, pl, seed)
			return []Cell{{0, name, x, stats.Speedup(d.WriteTotal().Seconds(), p.WriteTotal().Seconds())}}, err
		}})
	}
	return pts
}

// fig5 is the Fig. 5 reproduction for one I/O kernel: effective read
// bandwidth, PLFS (Parallel Index Read, the chosen default) vs direct
// access, across process counts.
func fig5(id, kernel, title string) Figure {
	return Figure{
		ID: id, Title: title,
		Panels: []Panel{{fmt.Sprintf("Figure %s: %s effective read bandwidth", id[3:], kernel), "procs", "MB/s"}},
		Points: func(o Options) []Point {
			return grid(o.kernelProcCounts(), []string{"direct", "plfs"}, func(procs, s int) Job {
				return o.fig5Job(kernel, procs, s == 1)
			}, read{0, "", readBW})
		},
		Headline: []Metric{{"plfs-vs-direct-x", ratio(last(0, "plfs"), last(0, "direct"))}},
	}
}

// fig5Job runs a kernel in the configuration of §IV.D for a process
// count, read back from cold caches.
func (o Options) fig5Job(name string, procs int, usePLFS bool) Job {
	perProc := pick(o, int64(16<<20), 50<<20) // 50 MB
	gig := pick(o, int64(64<<20), 1<<30)
	strong := pick(o, int64(1<<30), 32<<30)
	j := Job{
		Ranks: procs, Cfg: pfs.SmallCluster(), Opt: n1Opt(plfs.ParallelIndexRead, 1),
		UsePLFS: usePLFS, ReadBack: true, DropCaches: true,
		Kernel: map[string]workloads.Kernel{
			"pixie3d":  workloads.Pixie3D{BytesPerRank: gig, Vars: 8},
			"aramco":   workloads.Aramco{TotalBytes: strong / 2},
			"ior":      workloads.IOR(perProc, 1<<20),
			"madbench": workloads.Madbench{Matrices: 8, MatrixBytes: perProc / 8},
			"lanl1":    workloads.LANL1(perProc),
			"lanl3":    workloads.LANL3(strong, procs),
		}[name],
	}
	if name == "lanl3" {
		j.Hints = adio.Hints{CollectiveBuffering: true, ProcsPerNode: 16}
	}
	return j
}

// amplification is a run's physical over logical read bytes (1 when
// nothing was read).
func amplification(r Report, _ int) float64 {
	phys, logical := r.Obs[0].Counter("plfs.read.phys_bytes").Value(), r.Obs[0].Counter("plfs.read.bytes").Value()
	if logical > 0 {
		return float64(phys) / float64(logical)
	}
	return 1
}

// peak reads the largest mean on panel p.
func peak(p int) func([]*stats.Table) float64 {
	return func(t []*stats.Table) float64 {
		best := 0.0
		for _, pt := range t[p].Points() {
			best = max(best, pt.Mean)
		}
		return best
	}
}
