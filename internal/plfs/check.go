package plfs

import (
	"fmt"
	"path"
	"strings"
)

// CheckReport summarizes a container integrity check (the plfs_check
// administrative tool): structural problems found in the container's
// droppings and metadata.
type CheckReport struct {
	Droppings  int      `json:"droppings"`
	RawEntries int      `json:"raw_entries"`
	Segments   int      `json:"segments"`
	Logical    int64    `json:"logical"`   // logical size from the index
	MetaSize   int64    `json:"meta_size"` // logical size cached in the metadir (-1 if absent)
	Problems   []string `json:"problems"`
}

// OK reports whether the container passed every check.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// String renders a human-readable summary.
func (r CheckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "droppings %d, raw entries %d, resolved segments %d, logical %d",
		r.Droppings, r.RawEntries, r.Segments, r.Logical)
	if r.MetaSize >= 0 {
		fmt.Fprintf(&b, ", meta size %d", r.MetaSize)
	}
	if r.OK() {
		b.WriteString("\nOK")
	} else {
		for _, p := range r.Problems {
			b.WriteString("\nPROBLEM: " + p)
		}
	}
	return b.String()
}

// Check verifies a container's structural integrity: every index record
// must point inside its data dropping, orphaned index droppings are
// flagged, and the cached logical size must match the index.
func (m *Mount) Check(ctx Ctx, rel string) (CheckReport, error) {
	rel = clean(rel)
	rep := CheckReport{MetaSize: -1}
	if ok, err := m.IsContainer(ctx, rel); err != nil {
		return rep, err
	} else if !ok {
		return rep, fmt.Errorf("plfs: check %s: not a container", rel)
	}
	drops, err := m.listDroppings(ctx, rel)
	if err != nil {
		return rep, err
	}
	rep.Droppings = len(drops)

	r := &Reader{m: m, ctx: ctx, rel: rel, handles: map[int32]File{}}
	shards := make([][]Rec, 0, len(drops))
	paths := make([]string, len(drops))
	sizes := make([]int64, len(drops))
	for i, d := range drops {
		paths[i] = d.Data
		fi, err := ctx.Vols[d.Vol].Stat(d.Data)
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("data dropping unreadable: %s: %v", d.Data, err))
			continue
		}
		sizes[i] = fi.Size
		if d.Index == "" {
			if fi.Size > 0 {
				note := "unreachable"
				if _, _, _, ferr := m.readFrameFooter(ctx, d); ferr == nil {
					note = "recoverable via plfsctl recover"
				}
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("data dropping with no index records: %s (%d bytes %s)", d.Data, fi.Size, note))
			}
			continue
		}
		recs, err := r.readShard(d, int32(i))
		if err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("index dropping corrupt: %s: %v", d.Index, err))
			continue
		}
		// Per-entry structural checks: expand run records so every element
		// is bounds-checked, and so the footer-length arithmetic below sees
		// the same entry count the recovery footer records.
		sh := expandRecs(recs)
		var covered int64
		for _, e := range sh {
			if e.Length < 0 || e.PhysOff < 0 || e.PhysOff+e.Length > fi.Size {
				rep.Problems = append(rep.Problems, fmt.Sprintf(
					"index record out of bounds: %s: phys [%d,%d) beyond %d bytes",
					d.Index, e.PhysOff, e.PhysOff+e.Length, fi.Size))
			}
			covered += e.Length
		}
		// Framed droppings carry a recovery footer past the data extents,
		// so the index legitimately covers size minus the footer; a parsed
		// footer gives the exact data region, legacy sizes are inferred.
		expect := fi.Size
		if _, _, dataEnd, ferr := m.readFrameFooter(ctx, d); ferr == nil {
			expect = dataEnd
		}
		if covered != expect && covered != fi.Size &&
			covered+frameFooterLen(len(sh)) != fi.Size && covered+frameFooterLen2(len(sh)) != fi.Size {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"dropping coverage mismatch: %s: index covers %d of %d bytes", d.Data, covered, fi.Size))
		}
		rep.RawEntries += len(sh)
		shards = append(shards, recs)
	}
	ix := BuildIndexRecs(shards, paths, m.opt.DecodeWorkers)
	rep.Segments = ix.Segments()
	rep.Logical = ix.Size()

	// Compare against the cached size records.
	cpath, vc := m.containerPath(rel)
	ents, err := ctx.Vols[vc].ReadDir(path.Join(cpath, metaDir))
	if err == nil {
		if n, ok := cachedSize(ents); ok {
			rep.MetaSize = n
		}
	}
	if rep.MetaSize >= 0 && rep.MetaSize != rep.Logical {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"size record %d disagrees with index logical size %d", rep.MetaSize, rep.Logical))
	}
	return rep, nil
}
