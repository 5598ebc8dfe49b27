package harness

import (
	"fmt"
	"os"
	"testing"
	"time"

	"plfs/internal/plfs"
)

// TestProfileStorm and TestProfileFig4Point are manual scale probes:
// enable with PLFS_SCALE_TEST=1.
func TestProfileStorm(t *testing.T) {
	if os.Getenv("PLFS_SCALE_TEST") == "" {
		t.Skip("set PLFS_SCALE_TEST=1 to run scale probes")
	}
	o := Options{Scale: Paper}
	for _, ranks := range []int{8192, 16384, 32768} {
		start := time.Now()
		j := o.fig8Meta(ranks, 1)
		j.Seed = baseSeed
		res, err := Run(j)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("ranks=%d open=%.2fs wall=%.1fs\n", ranks, res.WriteOpen.Seconds(), time.Since(start).Seconds())
	}
}

func TestProfileFig4Point(t *testing.T) {
	if os.Getenv("PLFS_SCALE_TEST") == "" {
		t.Skip("set PLFS_SCALE_TEST=1 to run scale probes")
	}
	o := Options{Scale: Paper}
	for _, mode := range []plfs.Mode{plfs.Original, plfs.ParallelIndexRead} {
		start := time.Now()
		j := o.n1Job(2048, n1Opt(mode, 1), true)
		j.Seed = 1
		res, err := Run(j)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("mode=%-20s open=%.3fs readBW=%.0fMB/s wall=%.0fs\n  %s\n",
			mode, res.ReadOpen.Seconds(), res.ReadBW(2048)/1e6, time.Since(start).Seconds(), res.PFS)
	}
}
