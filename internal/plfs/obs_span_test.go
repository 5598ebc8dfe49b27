package plfs_test

import (
	"sync"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/plfs"
)

// TestSpanNestingUnderConcurrentOpen opens one container from many
// goroutines sharing a single registry (the harness wiring: one registry,
// all ranks) and checks the span trees stay well-formed — every child
// phase span points at an "open" root from the same registry, and no
// rank's spans cross into another's tree.  Run under -race in CI.
func TestSpanNestingUnderConcurrentOpen(t *testing.T) {
	const ranks, blocks, readers = 8, 4, 8
	bs := int64(512)
	r := newRig(t, 2, plfs.Options{IndexMode: plfs.Original})
	runRanks(t, r, ranks, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, ranks, blocks, bs, "spans")
	})

	reg := obs.New()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := r.ctx(g, nil)
			ctx.Obs = reg
			rd, err := r.m.OpenReader(ctx, "spans")
			if err != nil {
				t.Errorf("reader %d: %v", g, err)
				return
			}
			rd.Close()
		}(g)
	}
	wg.Wait()

	spans := reg.Spans()
	byID := map[uint64]obs.SpanRecord{}
	opens := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "open" {
			opens++
			if s.Parent != 0 {
				t.Errorf("open span %d has parent %d, want root", s.ID, s.Parent)
			}
		}
	}
	if opens != readers {
		t.Fatalf("open spans = %d, want %d", opens, readers)
	}
	for _, s := range spans {
		if s.Name == "open" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s (%d) has unknown parent %d", s.Name, s.ID, s.Parent)
			continue
		}
		if p.Name != "open" {
			t.Errorf("span %s (%d) nests under %q, want \"open\"", s.Name, s.ID, p.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%d,%d] escapes its parent [%d,%d]", s.Name, s.Start, s.End, p.Start, p.End)
		}
	}
	if got := reg.Histogram("span.open").Count(); got != readers {
		t.Errorf("span.open histogram count = %d, want %d", got, readers)
	}
}
