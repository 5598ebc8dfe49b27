// Command bench is the repository's benchmark: four workloads on two
// clocks (virtual time of the modeled cluster, wall clock of this Go
// code), with a per-layer trace.  BENCHMARK.json at the repository root
// names every workload and metric; README.md in this directory explains
// them.
//
//	bash bench/run.sh                                  every workload, both modes
//	bash bench/run.sh -workload osfs_stream -trace 0   one workload, end-to-end metrics
//	bash bench/run.sh -workload osfs_stream -trace 1   its per-layer trace
//	bash bench/run.sh -seed 2 -out b.jsonl             a held-out seed, kept for -compare
//	bash bench/run.sh -compare a.jsonl b.jsonl         judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	var (
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration")
		wl       = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (simulation jitter, payload bytes, offset permutation)")
		seconds  = flag.Float64("seconds", 0, "seconds to measure per workload and mode (0: run_seconds of the spec)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced iterations and probes; -1: both")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for <workload>.spans.csv")
		outFile  = flag.String("out", "", "append one full JSON record per run to this file (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files"))
		}
		bad, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		if *wl == "all" || *wl == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *wl))
	}
	modes := []bool{false, true}
	switch *trace {
	case 0:
		modes = []bool{false}
	case 1:
		modes = []bool{true}
	}

	env := runEnv{outDir: *outDir}
	hdr := newHeader(*seed, env)
	hdr.print(os.Stderr)
	failed := false
	for _, name := range names {
		for _, tr := range modes {
			res, err := runWorkload(spec, name, *seed, *seconds, tr, fullScale, env)
			if err != nil {
				fatal(err)
			}
			printTable(os.Stderr, res)
			if *outFile != "" {
				if err := appendRecord(*outFile, hdr, res); err != nil {
					fatal(err)
				}
			}
			// The last line of a run's standard output: the result.
			fmt.Println(res.contractLine())
			failed = failed || !res.Correct
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractLine renders the result as the driver reads it: exactly the
// keys correct, attempted, failed and metrics, each metric a value and a
// unit, in BENCHMARK.json order.
func (r *result) contractLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.Correct, r.Attempted, r.Failed)
	for i, m := range r.Metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

func printTable(w io.Writer, r *result) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "per-layer, traced iterations and probes"
	}
	fmt.Fprintf(w, "\n%s  seed %d  (%s)  %d iterations, %d ops attempted, %d failed\n",
		r.Workload, r.Seed, mode, r.Iters, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  %-38s %14s %-8s %14s %14s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, m := range r.Metrics {
		if m.N == 0 {
			continue // a layer this workload does not use
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-8s %14.6g %14.6g %4d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// header records where and on what a run was made.
type header struct {
	Seed        int64  `json:"seed"`
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	OsfsRanks   int    `json:"osfs_ranks"`
	TempDir     string `json:"temp_dir"`
	TempFS      string `json:"temp_fs"`
	LLCBytes    int64  `json:"llc_bytes"`
	StreamBytes int64  `json:"osfs_stream_bytes"`
	SmallBytes  int64  `json:"osfs_smallrand_bytes"`
}

func newHeader(seed int64, env runEnv) header {
	tmp := env.tmpDir
	if tmp == "" {
		tmp = os.TempDir()
	}
	r := osfsRanks(fullScale)
	return header{
		Seed: seed, Commit: gitCommit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), OsfsRanks: r,
		TempDir: tmp, TempFS: fsType(tmp), LLCBytes: llcBytes(),
		StreamBytes: int64(r) * fullScale.streamBytes, SmallBytes: int64(r) * fullScale.smallBytes,
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "plfs bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d\n", h.Commit, h.GoVersion, h.NProc, h.GoMaxProcs, h.Seed)
	fmt.Fprintf(w, "osfs workloads: %d ranks, temp dir %s (%s), no fsync: page-cache numbers of this sandbox, not of a device\n", h.OsfsRanks, h.TempDir, h.TempFS)
	fmt.Fprintf(w, "data: osfs_stream %d MiB, osfs_smallrand %d MiB; last-level cache %d MiB\n", h.StreamBytes>>20, h.SmallBytes>>20, h.LLCBytes>>20)
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// llcBytes reads cpu0's largest cache from sysfs (0 when absent).
func llcBytes() int64 {
	var max int64
	sizes, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range sizes {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		if t, ok := strings.CutSuffix(s, "K"); ok {
			s, mult = t, 1<<10
		} else if t, ok := strings.CutSuffix(s, "M"); ok {
			s, mult = t, 1<<20
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > max {
			max = n * mult
		}
	}
	return max
}

// record is one line of an -out file.
type record struct {
	Header header `json:"header"`
	result
}

func appendRecord(path string, h header, r *result) error {
	line, err := json.Marshal(record{Header: h, result: *r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
