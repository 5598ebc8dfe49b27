// Command plfsctl inspects real on-disk PLFS containers (created by the
// library over internal/osfs — e.g. by the examples).
//
// Usage:
//
//	plfsctl ls   <volume-root> [more roots...]        # list logical files
//	plfsctl stat <logical> -root <volume-root> ...    # logical size
//	plfsctl map  <logical> -root <volume-root> ...    # resolved offset map
//	plfsctl read <logical> -root ... -off N -len N    # dump logical bytes
//	plfsctl flatten <logical> -root ...               # persist a global index
//	plfsctl scrub <logical> -root ...                 # full integrity walk (checksums)
//	plfsctl scrub <logical> -root ... -repair         # walk and fix (replicas, footers, temps)
//	plfsctl check <logical> -root ...                 # alias of scrub
//	plfsctl recover <logical> -root ...               # alias of scrub -repair
//	plfsctl rm   <logical> -root <volume-root> ...    # remove a container
//	plfsctl top  <metrics.json>                       # summarise a -metrics dump
//	plfsctl health <metrics.json>                     # volume breaker / self-healing view
//
// scrub reads every index, footer, data checksum and metadata record of
// one container; scrub -repair makes the same reads and applies the fix
// each finding has — restore from a replica, rebuild an index from its
// recovery footer, re-replicate (pass -replicas to heal replica slots),
// drop a corrupt global index, sweep orphaned commit temps.  Both accept
// -json and use disciplined exit codes: 0 when nothing found remains, 1
// when something does, 2 on a usage or operational error.  top takes the
// JSON written by plfsrun/plfsbench -metrics ('-' = stdin) and renders
// timers by total time descending; health renders the same dump's
// per-volume breaker table and hedge/repair counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"plfs/internal/obs"
	"plfs/internal/osfs"
	"plfs/internal/plfs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var roots multiFlag
	fs.Var(&roots, "root", "volume root directory (repeat for federated mounts)")
	off := fs.Int64("off", 0, "read offset")
	length := fs.Int64("len", 256, "read length")
	jsonOut := fs.Bool("json", false, "machine-readable JSON report (scrub)")
	repair := fs.Bool("repair", false, "scrub: apply fixes instead of report-only")
	replicaN := fs.Int("replicas", 0, "index replication factor the container was written with (scrub -repair heals replica slots)")

	var logical string
	args := os.Args[2:]
	if cmd != "ls" && len(args) > 0 && args[0][0] != '-' {
		logical = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if cmd == "top" || cmd == "health" {
		// top and health read a metrics JSON file, not a container: no
		// -root needed.
		if logical == "" {
			fmt.Fprintf(os.Stderr, "plfsctl: %s requires a metrics JSON file (from plfsrun/plfsbench -metrics)\n", cmd)
			os.Exit(2)
		}
		do := doTop
		if cmd == "health" {
			do = doHealth
		}
		if err := do(logical); err != nil {
			fmt.Fprintln(os.Stderr, "plfsctl:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "ls" && len(roots) == 0 {
		roots = fs.Args()
	}
	if len(roots) == 0 {
		fmt.Fprintln(os.Stderr, "plfsctl: at least one -root required")
		os.Exit(2)
	}

	m := plfs.NewMount(roots, plfs.Options{IndexReplicas: *replicaN})
	ctx := plfs.Ctx{Vols: backends(len(roots)), HostLeader: true}

	var err error
	switch cmd {
	case "ls":
		err = doLS(m, ctx)
	case "stat":
		err = doStat(m, ctx, logical)
	case "map":
		err = doMap(m, ctx, logical)
	case "read":
		err = doRead(m, ctx, logical, *off, *length)
	case "rm":
		err = m.Unlink(ctx, logical)
	case "flatten":
		err = m.Flatten(ctx, logical)
	case "check", "recover", "scrub":
		runReport(m, ctx, logical, *repair || cmd == "recover", *jsonOut)
		return
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "plfsctl:", err)
		os.Exit(1)
	}
}

// runReport runs scrub (or scrub -repair) with disciplined exit codes:
// 0 nothing left, 1 problems remain, 2 operational error.
func runReport(m *plfs.Mount, ctx plfs.Ctx, logical string, repair, jsonOut bool) {
	scrub := m.Scrub
	if repair {
		scrub = m.Repair
	}
	rep, err := scrub(ctx, logical)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plfsctl:", err)
		os.Exit(2)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "plfsctl:", err)
			os.Exit(2)
		}
	} else {
		fmt.Println(rep)
	}
	if !rep.OK() {
		os.Exit(1)
	}
	os.Exit(0)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: plfsctl {ls|stat|map|read|flatten|check|recover|scrub|rm} [logical] -root DIR [-root DIR...] [-off N] [-len N] [-json] [-repair] [-replicas N]")
	fmt.Fprintln(os.Stderr, "       plfsctl {top|health} <metrics.json>   (JSON from plfsrun/plfsbench -metrics; '-' = stdin)")
	os.Exit(2)
}

type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func backends(n int) []plfs.Backend {
	out := make([]plfs.Backend, n)
	for i := range out {
		out[i] = osfs.New()
	}
	return out
}

func doLS(m *plfs.Mount, ctx plfs.Ctx) error {
	ents, err := m.ReadDir(ctx, "/")
	if err != nil {
		return err
	}
	for _, e := range ents {
		kind := "file"
		if e.Dir {
			kind = "dir"
		}
		fmt.Printf("%-5s %s\n", kind, e.Name)
	}
	return nil
}

func doStat(m *plfs.Mount, ctx plfs.Ctx, logical string) error {
	fi, err := m.Stat(ctx, logical)
	if err != nil {
		return err
	}
	fmt.Printf("%s: logical size %d bytes\n", logical, fi.Size)
	return nil
}

func doMap(m *plfs.Mount, ctx plfs.Ctx, logical string) error {
	r, err := m.OpenReader(ctx, logical)
	if err != nil {
		return err
	}
	defer r.Close()
	ix := r.Index()
	fmt.Printf("# %s: %d droppings, %d raw entries, %d resolved segments, %d runs, logical size %d\n",
		logical, len(ix.Droppings()), ix.RawEntries(), ix.Segments(), ix.Runs(), ix.Size())
	for _, p := range ix.Lookup(0, ix.Size()) {
		if p.Dropping < 0 {
			fmt.Printf("%12d +%-10d hole\n", p.Logical, p.Length)
			continue
		}
		fmt.Printf("%12d +%-10d rank %-6d phys %-12d %s\n",
			p.Logical, p.Length, p.Rank, p.PhysOff, ix.Droppings()[p.Dropping])
	}
	return nil
}

// doTop summarises a metrics dump (the JSON written by plfsrun or
// plfsbench -metrics): timers sorted by total time descending, then
// counters and gauges alphabetically.
func doTop(path string) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(in).Decode(&snap); err != nil {
		return fmt.Errorf("parsing metrics JSON: %w", err)
	}

	if len(snap.Histograms) > 0 {
		names := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := snap.Histograms[names[i]], snap.Histograms[names[j]]
			if a.SumSeconds != b.SumSeconds {
				return a.SumSeconds > b.SumSeconds
			}
			return names[i] < names[j]
		})
		fmt.Printf("%-32s %10s %12s %10s %10s %10s %10s\n",
			"TIMER", "COUNT", "TOTAL(s)", "P50(s)", "P95(s)", "P99(s)", "MAX(s)")
		for _, name := range names {
			h := snap.Histograms[name]
			fmt.Printf("%-32s %10d %12.6f %10.6f %10.6f %10.6f %10.6f\n",
				name, h.Count, h.SumSeconds, h.P50Seconds, h.P95Seconds, h.P99Seconds, h.MaxSeconds)
		}
	}
	printVolumeLoad(snap)
	if len(snap.Counters) > 0 {
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("\n%-32s %14s\n", "COUNTER", "VALUE")
		for _, name := range names {
			fmt.Printf("%-32s %14d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		names := make([]string, 0, len(snap.Gauges))
		for name := range snap.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("\n%-32s %14s\n", "GAUGE", "VALUE")
		for _, name := range names {
			fmt.Printf("%-32s %14.3f\n", name, snap.Gauges[name])
		}
	}
	printTenants(snap)
	if snap.SpansDropped > 0 {
		fmt.Printf("\n(%d spans dropped by the retention limit)\n", snap.SpansDropped)
	}
	return nil
}

// printVolumeLoad renders the per-volume metadata load table from the
// pfs.vol<i>.mds_busy_seconds / mdsread_busy_seconds gauges: per-volume
// mutation and read-path busy time, each volume's share of the total,
// and the max/median skew — the operator view of the hot-volume
// imbalance the mount's Rebalance pass acts on.
func printVolumeLoad(snap obs.Snapshot) {
	type load struct{ mut, read float64 }
	vols := map[int]*load{}
	at := func(i int) *load {
		if vols[i] == nil {
			vols[i] = &load{}
		}
		return vols[i]
	}
	for name, v := range snap.Gauges {
		rest, ok := strings.CutPrefix(name, "pfs.vol")
		if !ok {
			continue
		}
		idStr, field, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			continue
		}
		switch field {
		case "mds_busy_seconds":
			at(id).mut = v
		case "mdsread_busy_seconds":
			at(id).read = v
		}
	}
	if len(vols) == 0 {
		return
	}
	ids := make([]int, 0, len(vols))
	var total float64
	busy := make([]float64, 0, len(vols))
	for id, l := range vols {
		ids = append(ids, id)
		total += l.mut
		busy = append(busy, l.mut)
	}
	sort.Ints(ids)
	fmt.Printf("\n%-6s %14s %14s %8s\n", "VOLUME", "MDS_BUSY(s)", "MDSREAD_BUSY(s)", "SHARE")
	for _, id := range ids {
		l := vols[id]
		share := 0.0
		if total > 0 {
			share = 100 * l.mut / total
		}
		fmt.Printf("vol%-3d %14.6f %14.6f %7.1f%%\n", id, l.mut, l.read, share)
	}
	sort.Float64s(busy)
	maxL, med := busy[len(busy)-1], busy[len(busy)/2]
	switch {
	case len(busy) < 2 || maxL <= 0:
		fmt.Printf("mds load skew (max/median): n/a\n")
	case med <= 0:
		fmt.Printf("mds load skew (max/median): inf (median volume idle)\n")
	default:
		fmt.Printf("mds load skew (max/median): %.2f\n", maxL/med)
	}
}

// doHealth renders the self-healing view of a metrics dump: one row per
// volume from the plfs.health.<root>.* gauges (breaker state, rolling
// p99, transition and outcome counts), then the hedge/replica counters
// and the repair ledger.
func doHealth(path string) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(in).Decode(&snap); err != nil {
		return fmt.Errorf("parsing metrics JSON: %w", err)
	}

	if vols := plfs.ReadHealth(snap); len(vols) == 0 {
		fmt.Println("no plfs.health.* gauges in this dump (run with a Service mount and -metrics)")
	} else {
		fmt.Printf("%-16s %-10s %10s %8s %8s %8s %10s %10s\n",
			"VOLUME", "STATE", "P99(ms)", "OPENS", "PROBES", "PROBE_OK", "FAILURES", "SLOW_OPS")
		for _, v := range vols {
			fmt.Printf("%-16s %-10s %10.3f %8d %8d %8d %10d %10d\n",
				v.Root, v.State, float64(v.P99)/1e6, v.Opens, v.Probes, v.ProbeOK, v.Failures, v.SlowOps)
		}
	}

	ctr := func(name string) int64 { return snap.Counters[name] }
	fmt.Printf("\nhedging: hedged %d  hedge_wins %d  failover %d  replica_deferred %d  replica_write_errors %d\n",
		ctr("plfs.read.hedged"), ctr("plfs.read.hedge_wins"), ctr("plfs.replica.failover"),
		ctr("plfs.replica.deferred"), ctr("plfs.replica.write_errors"))
	fmt.Printf("repair:  ticks %d  found %d = repaired %d + unrepairable %d  (deferred %d)\n",
		ctr("plfs.repair.ticks"), ctr("plfs.repair.found"), ctr("plfs.repair.repaired"),
		ctr("plfs.repair.unrepairable"), ctr("plfs.repair.deferred"))
	if sk := ctr("plfs.read.skipped_shards"); sk > 0 {
		fmt.Printf("degraded reads: %d skipped shards\n", sk)
	}
	return nil
}

// printTenants renders the mount-service view when the dump carries
// plfs.svc.* / plfs.econ.* series (plfsrun -tenants -metrics): one row
// per tenant joining the admission ledger counters with the cache-bytes
// attribution gauge, then the economy totals.  A tenant name may hold
// dots: the field is what follows the last one.
func printTenants(snap obs.Snapshot) {
	type row struct {
		admitted, completed, rejected, retries int64
		cacheBytes                             float64
	}
	tenants := map[string]*row{}
	get := func(name string) (*row, string) {
		rest, ok := strings.CutPrefix(name, "plfs.svc.tenant.")
		i := strings.LastIndex(rest, ".")
		if !ok || i < 0 {
			return nil, ""
		}
		t := rest[:i]
		if tenants[t] == nil {
			tenants[t] = &row{}
		}
		return tenants[t], rest[i+1:]
	}
	for name, v := range snap.Counters {
		r, field := get(name)
		switch field {
		case "admitted":
			r.admitted = v
		case "completed":
			r.completed = v
		case "rejected":
			r.rejected = v
		case "retries":
			r.retries = v
		}
	}
	for name, v := range snap.Gauges {
		if r, field := get(name); field == "cache_bytes" {
			r.cacheBytes = v
		}
	}
	if len(tenants) == 0 {
		return
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	fmt.Printf("\n%-16s %10s %10s %10s %10s %12s\n",
		"TENANT", "ADMITTED", "COMPLETED", "REJECTED", "RETRIES", "CACHE(KB)")
	for _, t := range names {
		r := tenants[t]
		fmt.Printf("%-16s %10d %10d %10d %10d %12.1f\n",
			t, r.admitted, r.completed, r.rejected, r.retries, r.cacheBytes/1024)
	}
	if budget, ok := snap.Gauges["plfs.econ.budget_bytes"]; ok {
		fmt.Printf("economy: used %.0f/%.0f KB, evicted %.0f entries (%.0f KB)\n",
			snap.Gauges["plfs.econ.used_bytes"]/1024, budget/1024,
			snap.Gauges["plfs.econ.evictions"], snap.Gauges["plfs.econ.evicted_bytes"]/1024)
	}
}

func doRead(m *plfs.Mount, ctx plfs.Ctx, logical string, off, n int64) error {
	r, err := m.OpenReader(ctx, logical)
	if err != nil {
		return err
	}
	defer r.Close()
	if off+n > r.Size() {
		n = r.Size() - off
	}
	pl, err := r.ReadAt(off, n)
	if err != nil {
		return err
	}
	os.Stdout.Write(pl.Materialize())
	return nil
}
