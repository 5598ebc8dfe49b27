package plfs

// Container integrity (DESIGN.md §9, §15).  One per-container pass backs
// Scrub, Repair and the repair daemon's tick.  It sweeps orphaned commit
// temps, checks the flattened global index, every index dropping and
// their replicas, and — in the deep mode Scrub and Repair run — each
// data dropping's recovery footer and data checksums, the openhosts
// records, and the metadir size record.  Every finding is one Problem of
// a kind below, with at most one fix.  Scrub applies only the sweep;
// Repair and the daemon apply every fix.  A finding without one is
// unrepairable, so found = repaired + unrepairable by construction.

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"strings"
)

// Problem kinds and their fixes.
const (
	kindOrphanTmp     = "orphan-tmp"            // a crashed commit's temp file: swept
	kindGlobalIndex   = "global-index"          // undecodable, or lost while a replica survives: restored from the replica, else dropped
	kindReplica       = "replica"               // index or global-index replica missing or stale: re-replicated
	kindIndexCorrupt  = "index-corrupt"         // index dropping unreadable or undecodable: restored from a replica, else rebuilt from the footer
	kindUnreachable   = "unreachable"           // data with no index dropping: as index-corrupt; data that cannot be read: none
	kindExtentBounds  = "extent-bounds"         // index record fails extentOK: rebuilt from the footer
	kindCoverage      = "coverage"              // index covers another byte count than the data region: rebuilt from the footer
	kindFooterCount   = "index-footer-mismatch" // index and footer list different entry counts: rebuilt from the footer
	kindTornTail      = "torn-tail"             // unframed data past the indexed coverage: none
	kindChecksumData  = "checksum-data"         // data extent fails its footer CRC: none
	kindOrphanIndex   = "orphan-index"          // index dropping with no data dropping: none
	kindStaleOpenHost = "stale-openhost"        // writer registered but never closed: none
	kindSizeRecord    = "size-record"           // metadir size record disagrees with the index: none
)

// Problem is one finding of an integrity pass.
type Problem struct {
	Kind     string `json:"kind"`             // machine-matchable class (the kinds above)
	Path     string `json:"path"`             // backend path the problem was found at
	Extent   string `json:"extent,omitempty"` // physical "[lo,hi)" of an extent-scoped problem
	Detail   string `json:"detail"`           // the problem and its fix
	Repaired bool   `json:"repaired"`         // the pass applied the fix
}

// String renders one problem line.
func (p Problem) String() string {
	s := p.Kind + ": " + p.Path
	if p.Extent != "" {
		s += " extent " + p.Extent
	}
	if p.Detail != "" {
		s += ": " + p.Detail
	}
	return s
}

// Report is the outcome of an integrity pass over one container or, from
// the repair daemon, over many.
type Report struct {
	Repair         bool      `json:"repair"`          // fixes were applied (Repair, the daemon)
	Containers     int       `json:"containers"`      // containers walked
	Deferred       int       `json:"deferred"`        // work skipped: volume breaker not closed
	Droppings      int       `json:"droppings"`       // data droppings examined
	IndexesChecked int       `json:"indexes_checked"` // index droppings decoded (deep passes)
	ExtentsChecked int       `json:"extents_checked"` // data extents CRC-verified
	BytesVerified  int64     `json:"bytes_verified"`  // data bytes CRC-verified
	Logical        int64     `json:"logical"`         // logical size the indexes give (deep passes)
	GlobalIndex    bool      `json:"global_index"`    // readers have a flattened global index (primary or replica)
	Problems       []Problem `json:"problems"`
}

// Found counts the findings.
func (r Report) Found() int { return len(r.Problems) }

// Repaired counts the findings the pass fixed.
func (r Report) Repaired() int {
	n := 0
	for _, p := range r.Problems {
		if p.Repaired {
			n++
		}
	}
	return n
}

// Unrepairable counts the findings the pass left in place.
func (r Report) Unrepairable() int { return r.Found() - r.Repaired() }

// OK reports whether nothing the pass found remains.
func (r Report) OK() bool { return r.Unrepairable() == 0 }

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "containers %d, droppings %d, indexes %d, extents verified %d (%d bytes), logical %d",
		r.Containers, r.Droppings, r.IndexesChecked, r.ExtentsChecked, r.BytesVerified, r.Logical)
	if r.GlobalIndex {
		b.WriteString(", global index present")
	}
	if r.Deferred > 0 {
		fmt.Fprintf(&b, ", deferred %d", r.Deferred)
	}
	fmt.Fprintf(&b, "\nfound %d = repaired %d + unrepairable %d", r.Found(), r.Repaired(), r.Unrepairable())
	for _, p := range r.Problems {
		label := "PROBLEM: "
		if p.Repaired {
			label = "REPAIRED: "
		} else if r.Repair {
			label = "UNREPAIRABLE: "
		}
		b.WriteString("\n" + label + p.String())
	}
	if r.OK() {
		b.WriteString("\nOK")
	}
	return b.String()
}

// merge folds one container's report into an aggregate.
func (r *Report) merge(c Report) {
	r.Containers += c.Containers
	r.Deferred += c.Deferred
	r.Droppings += c.Droppings
	r.Problems = append(r.Problems, c.Problems...)
}

// Scrub walks one container end to end — every index, footer, data
// checksum and metadata record — and reports what it finds.  It fixes
// nothing beyond sweeping orphaned commit temps.  It returns an error
// only when the container itself cannot be examined.  It is an offline
// tool: openhosts records are reported stale because no writer should be
// active while scrubbing.
func (m *Mount) Scrub(ctx Ctx, rel string) (Report, error) {
	return m.deepPass(ctx, rel, "scrub")
}

// Repair makes Scrub's reads and applies the fix each finding has (see
// the kind list above); findings with no fix are left unrepairable.
func (m *Mount) Repair(ctx Ctx, rel string) (Report, error) {
	return m.deepPass(ctx, rel, "repair")
}

// deepPass runs Scrub's or Repair's pass (verb names which) and counts
// its findings into the caller's registry as plfs.<verb>.{found,
// repaired,unrepairable}.
func (m *Mount) deepPass(ctx Ctx, rel, verb string) (Report, error) {
	rep, err := m.integrity(ctx, rel, true, verb == "repair")
	if err == nil && ctx.Obs != nil {
		ctx.Obs.Counter("plfs." + verb + ".found").Add(int64(rep.Found()))
		ctx.Obs.Counter("plfs." + verb + ".repaired").Add(int64(rep.Repaired()))
		ctx.Obs.Counter("plfs." + verb + ".unrepairable").Add(int64(rep.Unrepairable()))
	}
	return rep, err
}

// pass is one integrity walk over one container.
type pass struct {
	m   *Mount
	ctx Ctx
	// deep passes (Scrub, Repair) read everything; the daemon's shallow
	// pass reads each index and its replicas, and a dropping's footer and
	// size only once its index proves unusable — exactly the operations
	// its tick has always issued, which the simulated brownout replays.
	deep    bool
	rep     Report
	changed bool // a fix rewrote index state: cached aggregations are stale
}

func (m *Mount) integrity(ctx Ctx, rel string, deep, repair bool) (Report, error) {
	ctx = m.bind(ctx)
	rel = clean(rel)
	p := &pass{m: m, ctx: ctx, deep: deep, rep: Report{Repair: repair, Containers: 1}}
	verb := "scrub"
	if repair {
		verb = "repair"
	}
	if ok, err := m.IsContainer(ctx, rel); err != nil {
		return p.rep, err
	} else if !ok {
		return p.rep, fmt.Errorf("plfs: %s %s: not a container: %w", verb, rel, iofs.ErrNotExist)
	}
	if deep {
		defer ctx.Obs.StartSpan(verb).End()
	}
	removed, err := m.sweepTmpFiles(ctx, rel)
	if err != nil {
		return p.rep, err
	}
	for _, tp := range removed {
		p.add(Problem{Kind: kindOrphanTmp, Path: tp, Detail: "orphaned commit temp file; swept", Repaired: true})
	}
	cpath, vc := m.containerPath(rel)
	p.globalIndex(cpath, vc)
	if deep {
		ohd := path.Join(cpath, openHostsDir)
		ents, err := ctx.Vols[vc].ReadDir(ohd)
		if err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return p.rep, err
		}
		for _, e := range ents {
			p.add(Problem{Kind: kindStaleOpenHost, Path: path.Join(ohd, e.Name), Detail: "writer registered but never closed"})
		}
	}
	drops, err := m.walkDroppings(ctx, rel, deep)
	if err != nil {
		return p.rep, err
	}
	for _, d := range drops {
		p.dropping(d)
	}
	if deep {
		md := path.Join(cpath, metaDir)
		ents, err := ctx.Vols[vc].ReadDir(md)
		if err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return p.rep, err
		}
		if n, ok := cachedSize(ents); ok && n != p.rep.Logical {
			p.add(Problem{Kind: kindSizeRecord, Path: md,
				Detail: fmt.Sprintf("size record %d disagrees with index logical size %d", n, p.rep.Logical)})
		}
	}
	if p.changed {
		m.advanceGen(m.stateOf(rel, ctx.Tenant), true)
	}
	return p.rep, nil
}

func (p *pass) add(pr Problem) { p.rep.Problems = append(p.rep.Problems, pr) }

// fix books findings that one action fixes: a repairing pass applies it
// and marks them repaired (or notes why it failed); Scrub only reports
// them.  It reports whether the fix landed.
func (p *pass) fix(apply func() error, prs ...Problem) bool {
	ok := false
	if p.rep.Repair {
		err := apply()
		ok = err == nil
		p.changed = p.changed || ok
		for i := range prs {
			prs[i].Repaired = ok
			if !ok {
				prs[i].Detail += "; repair failed: " + err.Error()
			}
		}
	}
	p.rep.Problems = append(p.rep.Problems, prs...)
	return ok
}

// dropState is what a pass knows of one dropping.  The footer and the
// data size are read on first use: a deep pass reads both up front, the
// shallow pass only once the index proves unusable.
type dropState struct {
	droppingRef
	ipath string
	ibuf  []byte
	recs  []Rec
	ierr  error
	ents  []Entry // entries readers see after the pass (deep passes)

	sized, footed bool
	size          int64
	statErr       error
	fents         []Entry
	sums          []uint32
	dataEnd       int64
	footErr       error
}

func (s *dropState) stat(p *pass) error {
	if !s.sized {
		s.sized = true
		var fi Info
		fi, s.statErr = p.ctx.Vols[s.Vol].Stat(s.Data)
		s.size = fi.Size
	}
	return s.statErr
}

func (s *dropState) footer(p *pass) error {
	if !s.footed {
		s.footed = true
		s.fents, s.sums, s.dataEnd, s.footErr = p.m.readFrameFooter(p.ctx, s.droppingRef)
	}
	return s.footErr
}

// dropping checks one dropping and applies the fix its findings share.
func (p *pass) dropping(d droppingRef) {
	if p.m.volDegraded(p.ctx, d.Vol) {
		// The volume is browned out or down: examining it now would misread
		// transient sickness as data loss, and every probe costs a
		// degraded-latency op.  The next pass returns once the breaker
		// closes.
		p.rep.Deferred++
		return
	}
	if d.Data == "" {
		p.add(Problem{Kind: kindOrphanIndex, Path: d.Index, Detail: "index dropping with no data dropping"})
		return
	}
	p.rep.Droppings++
	s := &dropState{droppingRef: d, ipath: indexPathFor(d)}
	if p.deep {
		if err := s.stat(p); err != nil {
			p.add(Problem{Kind: kindUnreachable, Path: d.Data, Detail: "stat: " + err.Error()})
			return
		}
		s.footer(p)
	}
	if p.deep && d.Index == "" && p.rep.GlobalIndex {
		// Readers reach a flattened container's droppings through its
		// healthy global index.  (The shallow pass gives them per-writer
		// indexes anyway, as the daemon always has: what readers fall back
		// to should the global index ever be dropped.)
		if s.footErr == nil && s.sums != nil {
			p.verifyData(s)
		}
		return
	}
	s.ibuf, s.recs, s.ierr = p.m.readIndexFile(p.ctx, d.Vol, s.ipath)
	var idx []Problem
	if p.deep {
		idx = p.examine(s)
	}
	switch {
	case s.ierr != nil:
		p.lostIndex(s)
	case len(idx) > 0:
		p.rebuild(s, idx...)
	default:
		p.replicas(s.ipath, s.ibuf)
	}
	for _, e := range s.ents {
		p.rep.Logical = max(p.rep.Logical, e.LogicalOff+e.Length)
	}
}

// examine runs a deep pass's checks of one dropping — its index against
// the data region and the recovery footer, then every checksummed data
// extent — and returns the findings a fresh index would fix.
func (p *pass) examine(s *dropState) []Problem {
	var idx []Problem
	if s.ierr == nil {
		p.rep.IndexesChecked++
		s.ents = expandRecs(s.recs)
		dataEnd := s.size
		if s.footErr == nil {
			dataEnd = s.dataEnd
		}
		var covered int64
		for _, e := range s.ents {
			if !extentOK(e, dataEnd) {
				idx = append(idx, Problem{Kind: kindExtentBounds, Path: s.ipath, Extent: extentOf(e),
					Detail: fmt.Sprintf("index record outside %d data bytes", dataEnd)})
				continue
			}
			covered += e.Length
		}
		switch {
		case covered == dataEnd:
		case s.footErr != nil && covered < dataEnd:
			// Without a footer, bytes past the indexed coverage are a torn
			// append tail (e.g. a crash after Sync spilled the index):
			// invisible to readers, and nothing records what they were.
			p.add(Problem{Kind: kindTornTail, Path: s.Data, Extent: fmt.Sprintf("[%d,%d)", covered, dataEnd),
				Detail: fmt.Sprintf("%d data bytes beyond indexed coverage", dataEnd-covered)})
		default:
			idx = append(idx, Problem{Kind: kindCoverage, Path: s.Data,
				Detail: fmt.Sprintf("index covers %d of %d data bytes", covered, dataEnd)})
		}
		if s.footErr == nil && len(s.fents) != len(s.ents) {
			idx = append(idx, Problem{Kind: kindFooterCount, Path: s.ipath,
				Detail: fmt.Sprintf("index has %d entries, recovery footer has %d", len(s.ents), len(s.fents))})
		}
	}
	if s.footErr == nil && s.sums != nil {
		p.verifyData(s)
	}
	return idx
}

// verifyData checks every data extent against its footer CRC.
func (p *pass) verifyData(s *dropState) {
	f, err := p.ctx.Vols[s.Vol].OpenRead(s.Data)
	if err != nil {
		p.add(Problem{Kind: kindUnreachable, Path: s.Data, Detail: "open: " + err.Error()})
		return
	}
	defer f.Close()
	for i, e := range s.fents {
		l, err := f.ReadAt(e.PhysOff, e.Length)
		if err != nil {
			p.add(Problem{Kind: kindUnreachable, Path: s.Data, Extent: extentOf(e), Detail: "read: " + err.Error()})
			continue
		}
		p.rep.ExtentsChecked++
		p.rep.BytesVerified += e.Length
		if got := listCRC(0, l); got != s.sums[i] {
			p.add(Problem{Kind: kindChecksumData, Path: s.Data, Extent: extentOf(e),
				Detail: fmt.Sprintf("data crc32c %08x, footer says %08x", got, s.sums[i])})
		}
	}
}

// extentOf renders e's physical range.
func extentOf(e Entry) string { return fmt.Sprintf("[%d,%d)", e.PhysOff, e.PhysOff+e.Length) }
