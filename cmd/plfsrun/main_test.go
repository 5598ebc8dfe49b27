package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"plfs/internal/adio"
	"plfs/internal/harness"
	"plfs/internal/mpi"
	"plfs/internal/obs"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
	"plfs/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain runs the command itself when PLFSRUN_MAIN is set, so a test
// can check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("PLFSRUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveSizes checks that a rank count, op size, volume
// count or retry count below one, or an unknown profile or mode, is a
// usage error (exit 2 with a message), not a panic.
func TestRejectsNonPositiveSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "mpi-io-test", "-opkb", "0"},
		{"-kernel", "ior", "-opkb", "0"},
		{"-kernel", "n-n", "-opkb", "0"},
		{"-kernel", "noncontig", "-opkb", "-1"},
		{"-tenants", "2", "-opkb", "0"},
		{"-ranks", "0"},
		{"-kernel", "meta-storm", "-ranks", "-3"},
		{"-retry", "0"},
		{"-kernel", "ior", "-plfs", "-retry", "-2"},
		{"-profile", "bogus"},
		{"-mode", "bogus"},
		{"-plfs", "-volumes", "0"},
		{"-kernel", "meta-storm", "-volumes", "-2"},
	} {
		usageError(t, args)
	}
}

// TestRejectsIgnoredFlags checks that a mode refuses a flag the user set
// that it would otherwise ignore, naming the flag: meta-storm sets its own
// index mode, store and sizes, and runs its own cluster while -volumes is
// 1; -brownout builds its own cluster, faults and retry policy and sets
// its own index mode; -tenants runs its own kernel through PLFS with its
// own options; a direct run never reaches the PLFS options.  Only
// -tenants reads the service's admission and cache flags, only meta-storm
// reads -rounds and -rebalance, and a kernel reads only the size and
// access flags that shape its I/O; -brownout wins over -tenants.
func TestRejectsIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-kernel", "meta-storm", "-mode", "original"}, "-mode"},
		{[]string{"-kernel", "meta-storm", "-mode", "parallel", "-volumes", "4"}, "-mode"},
		{[]string{"-kernel", "meta-storm", "-profile", "cielo"}, "-profile"},
		{[]string{"-kernel", "meta-storm", "-profile", "small", "-volumes", "1"}, "-profile"},
		{[]string{"-brownout", "0:4", "-profile", "cielo"}, "-profile"},
		{[]string{"-brownout", "0:4", "-volumes", "7"}, "-volumes"},
		{[]string{"-brownout", "0:4", "-mode", "flatten"}, "-mode"},
		{[]string{"-brownout", "0:4", "-tenants", "2"}, "-tenants"},
		{[]string{"-brownout", "0:4", "-inflight", "1"}, "-inflight"},
		{[]string{"-brownout", "0:4", "-budget-mb", "1"}, "-budget-mb"},
		{[]string{"-kernel", "ior", "-inflight", "1"}, "-inflight"},
		{[]string{"-kernel", "ior", "-budget-mb", "1"}, "-budget-mb"},
		{[]string{"-kernel", "ior", "-rounds", "9"}, "-rounds"},
		{[]string{"-kernel", "ior", "-rebalance"}, "-rebalance"},
		{[]string{"-kernel", "meta-storm", "-inflight", "1"}, "-inflight"},
		{[]string{"-kernel", "meta-storm", "-budget-mb", "1"}, "-budget-mb"},
		{[]string{"-tenants", "2", "-mode", "original"}, "-mode"},
		{[]string{"-tenants", "2", "-plfs"}, "-plfs"},
		{[]string{"-tenants", "2", "-cb"}, "-cb"},
		{[]string{"-tenants", "2", "-access", "contig"}, "-access"},
		{[]string{"-tenants", "2", "-kernel", "ior"}, "-kernel"},
		{[]string{"-tenants", "2", "-kernel", "meta-storm"}, "-kernel"},
		{[]string{"-tenants", "2", "-verify=false"}, "-verify"},
		{[]string{"-tenants", "2", "-sieve-gap", "64"}, "-sieve-gap"},
		{[]string{"-tenants", "2", "-rounds", "5"}, "-rounds"},
		{[]string{"-kernel", "ior", "-mode", "original"}, "-mode"},
		{[]string{"-kernel", "ior", "-checksum"}, "-checksum"},
		{[]string{"-kernel", "ior", "-index-compress=false"}, "-index-compress"},
		{[]string{"-kernel", "ior", "-replicas", "2"}, "-replicas"},
		{[]string{"-kernel", "ior", "-retry", "3"}, "-retry"},
		{[]string{"-kernel", "ior", "-volumes", "2"}, "-volumes"},
		{[]string{"-kernel", "ior", "-plfs", "-files", "3"}, "-files"},
		{[]string{"-kernel", "ior", "-plfs", "-access", "contig"}, "-access"},
		{[]string{"-kernel", "ior", "-plfs", "-io-method", "sieve"}, "-io-method"},
		{[]string{"-kernel", "lanl3", "-plfs", "-cb"}, "-cb"},
		{[]string{"-kernel", "pixie3d", "-opkb", "64"}, "-opkb"},
		{[]string{"-kernel", "create-storm", "-plfs", "-mb", "1"}, "-mb"},
		{[]string{"-brownout", "1:8", "-retry", "5"}, "-retry"},
		{[]string{"-brownout", "1:8", "-fault", "seed=1,all=0.01"}, "-fault"},
		{[]string{"-brownout", "1:8", "-checksum"}, "-checksum"},
		{[]string{"-brownout", "1:8", "-kernel", "ior"}, "-kernel"},
		{[]string{"-kernel", "meta-storm", "-plfs"}, "-plfs"},
		{[]string{"-kernel", "meta-storm", "-mb", "1"}, "-mb"},
		{[]string{"-kernel", "meta-storm", "-backend", "objfs"}, "-backend"},
		{[]string{"-kernel", "meta-storm", "-checksum"}, "-checksum"},
		{[]string{"-kernel", "meta-storm", "-w"}, "-w"},
	} {
		if out := usageError(t, c.args); !strings.Contains(out, "ignores "+c.flag) {
			t.Errorf("plfsrun %v: stderr %q does not name %s", c.args, out, c.flag)
		}
	}
}

// TestVolumeLine checks that the volume line names what a rank wrote when
// its whole ops fall short of a whole MiB: -mb 1 at the default -opkb 50
// writes 20 ops of 50 KiB.
func TestVolumeLine(t *testing.T) {
	for b, want := range map[int64]string{
		0: "0 MB", 1 << 20: "1 MB", 50 << 20: "50 MB", 1000 << 10: "1000 KiB", 1<<20 + 1<<10: "1025 KiB",
	} {
		if got := volume(b); got != want {
			t.Errorf("volume(%d) = %q, want %q", b, got, want)
		}
	}
	cmd := exec.Command(os.Args[0], "-kernel", "mpi-io-test", "-ranks", "2", "-mb", "1")
	cmd.Env = append(os.Environ(), "PLFSRUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "  volume: 1000 KiB per rank\n") {
		t.Errorf("plfsrun -mb 1 printed %q, want a volume of 1000 KiB per rank", out)
	}
}

// usageError runs plfsrun with args and checks that it exits 2 with a
// "plfsrun: " message and no panic (a Go panic also exits 2, so it reads
// stderr).  It returns stderr.
func usageError(t *testing.T, args []string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PLFSRUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	out := stderr.String()
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(out, "plfsrun: ") ||
		strings.Contains(out, "panic") || strings.Contains(out, "goroutine") {
		t.Errorf("plfsrun %v: %v, stderr %q; want exit 2 with a usage message", args, err, out)
	}
	return out
}

// goldenJob is the fixed workload behind the -metrics golden file:
// everything that feeds the registry runs on the simulator's virtual
// clock, so the snapshot must be bit-identical across runs and hosts.
func goldenJob(reg *obs.Registry) harness.Job {
	return harness.Job{
		Seed: 1, Ranks: 4, Cfg: pfs.SmallCluster(), Net: mpi.DefaultNet(),
		Opt: plfs.Options{
			IndexMode: plfs.ParallelIndexRead, NumSubdirs: 32,
			Retry: plfs.RetryPolicy{Attempts: 1},
		},
		Kernel:  workloads.IOR(2<<20, 1<<19),
		UsePLFS: true, ReadBack: true, Verify: true, DropCaches: true,
		Obs: reg,
	}
}

// goldenNoncontigJob drives the write-sieving path (-kernel noncontig
// -access strided -io-method sieve, direct driver): the snapshot pins
// the plfs.write.sieve_* amplification counters alongside the base set.
func goldenNoncontigJob(reg *obs.Registry) harness.Job {
	return harness.Job{
		Seed: 1, Ranks: 4, Cfg: pfs.SmallCluster(), Net: mpi.DefaultNet(),
		Kernel: workloads.Noncontig{
			Access: workloads.AccessStrided, BlockSize: 4 << 10,
			BlocksPerRank: 8, Steps: 2, MemContig: true, Seed: 1,
		},
		Hints:   adio.Hints{IOMethod: adio.MethodSieve},
		UsePLFS: false, ReadBack: true, Verify: true, DropCaches: true,
		Obs: reg,
	}
}

// TestMetricsGolden locks down the -metrics JSON for a fixed job.  Any
// change to counter names, histogram bucketing, JSON field order, or
// the instrumented code paths shows up as a diff here; regenerate with
// `go test ./cmd/plfsrun -run TestMetricsGolden -update` and review it.
func TestMetricsGolden(t *testing.T) {
	checkGolden(t, goldenJob, filepath.Join("testdata", "metrics.golden.json"))
}

// TestMetricsGoldenNoncontig locks down the -metrics JSON for the
// noncontiguous sieve job, pinning the new counter names (sieve RMW,
// amplification bytes) the same way.
func TestMetricsGoldenNoncontig(t *testing.T) {
	checkGolden(t, goldenNoncontigJob, filepath.Join("testdata", "metrics.noncontig.golden.json"))
}

func checkGolden(t *testing.T, mk func(*obs.Registry) harness.Job, golden string) {
	t.Helper()
	reg := obs.New()
	if _, err := harness.Run(mk(reg)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics JSON drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
