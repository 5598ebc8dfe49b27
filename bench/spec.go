package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Workload names, in the order every report lists them.
const (
	wlN1Restart = "n1_restart_sim"
	wlNNCreate  = "nn_create_sim"
	wlStream    = "osfs_stream"
	wlSmallRand = "osfs_smallrand"
)

// metricSpec is one metric as BENCHMARK.json declares it.  Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// (per-layer metrics carry none).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.  Workloads and metrics are slices, not
// maps, so every report walks them in the file's order and two reports
// diff line by line.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs workloads, end_to_end and per_layer", path)
	}
	return &s, nil
}

// metrics returns the list a run of the given trace mode reports.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// exactOnSim names the end-to-end metrics that are virtual time on the
// *_sim workloads: a deterministic function of the seed, so two commits
// that share the model must report them bit for bit.
var exactOnSim = map[string]bool{
	"write_mbps": true, "read_mbps": true, "open_s": true,
}

// exactLayer names the per-layer metrics that are virtual times or counts
// and repeat exactly for one seed (on any workload that reports them).
var exactLayer = map[string]bool{
	"adio.write_open_s": true, "adio.write_io_s": true, "adio.write_close_s": true,
	"adio.read_open_s": true, "adio.read_io_s": true,
	"plfs.create_s": true, "plfs.close.index_s": true, "plfs.close.commit_s": true,
	"plfs.open.list_s": true, "plfs.open.decode_s": true, "plfs.open.exchange_s": true,
	"plfs.open.merge_s": true, "plfs.open.index_reads": true, "plfs.open.index_bytes": true,
	"plfs.write.ops": true, "plfs.read.ops": true, "plfs.read.phys_bytes": true,
	"plfs.index_records": true, "plfs.index_bytes": true,
	"osfs.calls": true, "osfs.meta_calls": true, "localcomm.calls": true,
	"osfs.bytes_written": true, "osfs.bytes_read": true, "osfs.store_amp_x": true,
	"mpi.barrier_virt_us": true, "nn.open_speedup_x": true,
	"pfs.meta_ops": true, "pfs.mds_busy_s": true, "pfs.mds_busy_max_share": true,
	"pfs.mds_skew_x": true, "pfs.net_bytes": true, "pfs.disk_bytes": true,
	"pfs.seeks": true, "pfs.lock_rpcs": true, "pfs.cache_hit_pct": true,
}

func isSim(workload string) bool { return workload == wlN1Restart || workload == wlNNCreate }

// isExact reports whether a metric must repeat exactly per seed.
func isExact(workload, metric string, trace bool) bool {
	if trace {
		return exactLayer[metric]
	}
	return isSim(workload) && exactOnSim[metric]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// spreads computed here match the driver's.  One value is its own
// quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 at the ends: extrapolates, as Python does
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
