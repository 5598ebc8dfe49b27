// Command plfsbench regenerates the paper's evaluation figures on the
// simulated cluster.
//
// Usage:
//
//	plfsbench -fig all                 # every figure, quick scale
//	plfsbench -fig fig4 -scale paper   # one figure at paper scale
//	plfsbench -list                    # show available figures
//
// Output is one aligned text table per figure panel (mean ± stddev over
// repetitions); -csv DIR additionally writes machine-readable series.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"plfs/internal/fault"
	"plfs/internal/harness"
	"plfs/internal/obs"
	"plfs/internal/plfs"
)

func main() {
	var ownObs []string
	for _, f := range harness.Figures() {
		if f.OwnObs {
			ownObs = append(ownObs, f.ID)
		}
	}
	var (
		figID    = flag.String("fig", "all", "figure id to run (see -list), or 'all'")
		scale    = flag.String("scale", "quick", "experiment scale: quick | paper")
		reps     = flag.Int("reps", 0, "repetitions per point (0 = default)")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		quiet    = flag.Bool("q", false, "suppress per-run progress lines")
		list     = flag.Bool("list", false, "list figures and exit")
		faultS   = flag.String("fault", "", "fault injection spec applied to every run, e.g. 'seed=7,all=0.01'")
		retryN   = flag.Int("retry", 1, "PLFS retry attempts for transient backend errors (1 = no retry)")
		metricsF = flag.String("metrics", "", "accumulate op metrics across every run and write them as JSON to this file ('-' = stdout); "+
			"figures whose cells read counters keep a registry per run and add nothing: "+strings.Join(ownObs, ", "))
		backend = flag.String("backend", "posix", "simulated store for every run: posix | objfs (-list names the figures that pin one)")
	)
	flag.Parse()

	if *list {
		for _, f := range harness.Figures() {
			fmt.Printf("%-18s %s\n", f.ID, f.Title)
			if f.Pins != "" {
				fmt.Printf("%-18s pins %s\n", "", f.Pins)
			}
		}
		return
	}

	switch *backend {
	case harness.BackendPosix, harness.BackendObjfs:
	default:
		fmt.Fprintf(os.Stderr, "plfsbench: unknown backend %q (want posix or objfs)\n", *backend)
		os.Exit(2)
	}
	if *retryN < 1 {
		fmt.Fprintf(os.Stderr, "plfsbench: -retry must be at least 1, the first try (got %d)\n", *retryN)
		os.Exit(2)
	}
	opts := harness.Options{
		Reps:    *reps,
		Retry:   plfs.RetryPolicy{Attempts: *retryN},
		Backend: *backend,
	}
	if *faultS != "" {
		spec, err := fault.ParseSpec(*faultS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plfsbench:", err)
			os.Exit(2)
		}
		opts.Fault = &spec
	}
	switch *scale {
	case "quick":
		opts.Scale = harness.Quick
	case "paper":
		opts.Scale = harness.Paper
	default:
		fmt.Fprintf(os.Stderr, "plfsbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	var reg *obs.Registry
	if *metricsF != "" {
		// One registry across the whole suite: spans are not retained (a
		// figure sweep would produce millions), histograms and counters are.
		// Each run records into its own and Figure.Run merges it in.
		reg = obs.New()
		reg.SetSpanLimit(0)
		opts.Obs = reg
	}

	var figs []harness.Figure
	if *figID == "all" {
		figs = harness.Figures()
	} else {
		for _, id := range strings.Split(*figID, ",") {
			f, ok := harness.FindFigure(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "plfsbench: unknown figure %q (try -list)\n", id)
				os.Exit(2)
			}
			figs = append(figs, f)
		}
	}

	for _, f := range figs {
		start := time.Now()
		fmt.Printf("== %s: %s (scale=%s)\n", f.ID, f.Title, *scale)
		tabs, err := f.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plfsbench: %s failed: %v\n", f.ID, err)
			os.Exit(1)
		}
		for i, tab := range tabs {
			fmt.Println(tab.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "plfsbench:", err)
					os.Exit(1)
				}
				name := f.ID
				if len(tabs) > 1 {
					name = fmt.Sprintf("%s-%d", f.ID, i)
				}
				path := filepath.Join(*csvDir, name+".csv")
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "plfsbench:", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("-- %s done in %.1fs\n\n", f.ID, time.Since(start).Seconds())
	}
	if reg != nil {
		out := os.Stdout
		if *metricsF != "-" {
			f, err := os.Create(*metricsF)
			if err != nil {
				fmt.Fprintln(os.Stderr, "plfsbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := reg.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "plfsbench:", err)
			os.Exit(1)
		}
	}
}
