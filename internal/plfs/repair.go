package plfs

// Repair actions and background repair (DESIGN.md §15).  The fixes the
// integrity pass (scrub.go) applies live here: restoring a lost or
// corrupt index or global index from a live replica, rebuilding an index
// dropping from its data dropping's recovery footer, re-replicating an
// under-replicated file, and dropping a global index nothing can
// restore.  The repair daemon's tick runs the pass's shallow mode over
// every container and counts the ledger — found = repaired +
// unrepairable over any quiescent window, plus the deferred work outside
// it — in the Service's registry (plfs.repair.* counters).

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
	"time"
)

// globalIndex checks the flattened global index and its replicas.
func (p *pass) globalIndex(cpath string, vc int) {
	m, ctx := p.m, p.ctx
	gp := path.Join(cpath, metaDir, globalIndex)
	pl, _, err := readAll(ctx.Vols[vc], gp)
	if err == nil {
		buf := pl.Materialize()
		var f frame
		if f, err = decodeFrame(frameGlobal, buf); err == nil {
			p.useGlobal(f.recs)
			p.replicas(gp, buf)
			return
		}
	} else if errors.Is(err, iofs.ErrNotExist) {
		// Missing is only a finding while a replica survives: a lost
		// primary.
		if _, ok := m.anyReplica(ctx, gp, frameGlobal); !ok {
			return
		}
		err = errors.New("primary lost")
	}
	pr := Problem{Kind: kindGlobalIndex, Path: gp, Detail: err.Error()}
	if rbuf, ok := m.anyReplica(ctx, gp, frameGlobal); ok {
		// Readers fail over to the replica whether or not it is restored.
		f, _ := decodeFrame(frameGlobal, rbuf)
		p.useGlobal(f.recs)
		pr.Detail += "; restore from replica"
		p.fix(func() error { return m.writeFileAtomic(ctx, ctx.Vols[vc], gp, rbuf, true) }, pr)
		return
	}
	// No replica can restore it: drop the corrupt file (readers
	// re-aggregate from the per-writer indexes), replicas with it, or a
	// later replicated read would resurrect it.
	pr.Detail += "; drop it"
	p.fix(func() error {
		if err := ctx.Vols[vc].Remove(gp); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
		m.removeReplicas(ctx, gp)
		return nil
	}, pr)
}

// useGlobal records the global index readers use: it reaches every
// dropping it lists and sets the logical size.
func (p *pass) useGlobal(recs []Rec) {
	p.rep.GlobalIndex = true
	for _, r := range recs {
		p.rep.Logical = max(p.rep.Logical, r.LogicalOff+int64(max(r.Count, 1)-1)*r.Stride+r.Length)
	}
}

// replicas re-replicates primary's healthy bytes over any replica slot
// that is missing or fails to byte-match.
func (p *pass) replicas(primary string, buf []byte) {
	m, ctx := p.m, p.ctx
	for k := 1; k < m.replicas(); k++ {
		rp, rv := m.replicaPath(primary, k)
		if m.volDegraded(ctx, rv) {
			p.rep.Deferred++
			continue
		}
		if pl, _, err := readAll(ctx.Vols[rv], rp); err == nil && string(pl.Materialize()) == string(buf) {
			continue
		}
		p.fix(func() error {
			err := m.ensureDirs(ctx, rv, path.Dir(rp))
			if err == nil {
				err = m.writeFileAtomic(ctx, ctx.Vols[rv], rp, buf, true)
			}
			return err
		}, Problem{Kind: kindReplica, Path: rp, Detail: "replica of " + primary + " missing or stale; re-replicate"})
	}
}

// lostIndex handles a dropping whose index is missing or undecodable:
// restore a replica, else rebuild from the recovery footer.  An empty
// dropping with no index has nothing to lose.
func (p *pass) lostIndex(s *dropState) {
	m, ctx := p.m, p.ctx
	pr := Problem{Kind: kindIndexCorrupt, Path: s.ipath, Detail: s.ierr.Error()}
	if s.Index == "" {
		pr = Problem{Kind: kindUnreachable, Path: s.Data, Detail: "no index dropping"}
	}
	if rbuf, ok := m.anyReplica(ctx, s.ipath, frameIndex); ok {
		pr.Detail += "; restore from replica"
		p.fix(func() error { return m.writeFileAtomic(ctx, ctx.Vols[s.Vol], s.ipath, rbuf, true) }, pr)
		if p.deep {
			// Readers fail over to the replica whether or not it is restored.
			f, _ := decodeFrame(frameIndex, rbuf)
			s.ents = expandRecs(f.recs)
		}
		return
	}
	if s.footer(p) == nil {
		p.rebuild(s, pr)
		return
	}
	if s.stat(p) == nil && s.size == 0 && s.Index == "" {
		return
	}
	pr.Detail += "; no replica, no usable recovery footer: " + s.footErr.Error()
	p.add(pr)
}

// rebuild books findings a fresh index fixes and rewrites the index from
// the recovery footer; without a usable footer they are unrepairable.
func (p *pass) rebuild(s *dropState, prs ...Problem) {
	if err := s.footer(p); err != nil {
		for _, pr := range prs {
			pr.Detail += "; no usable recovery footer"
			p.add(pr)
		}
		return
	}
	for i := range prs {
		prs[i].Detail += "; rebuild from recovery footer"
	}
	if p.fix(func() error { return p.m.rebuildIndex(p.ctx, s.droppingRef, s.fents) }, prs...) {
		s.ents = s.fents
	}
}

// readIndexFile reads and decodes one index file copy.
func (m *Mount) readIndexFile(ctx Ctx, v int, p string) ([]byte, []Rec, error) {
	pl, _, err := readAll(ctx.Vols[v], p)
	if err != nil {
		return nil, nil, err
	}
	buf := pl.Materialize()
	f, err := decodeFrame(frameIndex, buf)
	return buf, f.recs, err
}

// anyReplica returns the first replica copy of primary that decodes as a
// frame of kind.
func (m *Mount) anyReplica(ctx Ctx, primary string, kind frameKind) ([]byte, bool) {
	for k := 1; k < m.replicas(); k++ {
		rp, rv := m.replicaPath(primary, k)
		pl, _, err := readAll(ctx.Vols[rv], rp)
		if err != nil {
			continue
		}
		buf := pl.Materialize()
		if _, err := decodeFrame(kind, buf); err == nil {
			return buf, true
		}
	}
	return nil, false
}

// listContainers walks the mount's logical namespace and returns every
// container's relative path, sorted (the union across volumes; shadow
// and replica directories resolve to the same logical name).
func (m *Mount) listContainers(ctx Ctx) ([]string, error) {
	seen := map[string]bool{}
	var walk func(rel string) error
	walk = func(rel string) error {
		for v, root := range m.roots {
			if m.health != nil && m.health.Avoid(root, ctx.now()) {
				// Open breaker mid-cooldown: grinding a degraded-latency
				// ReadDir every tick would tax the scrub, and the subtree
				// resurfaces next pass.  When the cooldown HAS elapsed,
				// Avoid admits this listing as the half-open probe — the
				// periodic scrub doubles as the breaker's prober even when
				// steering keeps the workload itself off the volume.
				continue
			}
			ents, err := ctx.Vols[v].ReadDir(path.Join(root, rel))
			if err != nil {
				// A transiently failing volume hides its subtree for this
				// pass only — the scrubber is periodic, so the next tick
				// picks the containers up.  Anything else aborts.
				if errors.Is(err, iofs.ErrNotExist) || Retryable(err) {
					continue
				}
				return err
			}
			for _, e := range ents {
				if !e.Dir {
					continue
				}
				sub := path.Join(rel, e.Name)
				if seen[sub] {
					continue
				}
				if m.volDegraded(ctx, m.containerVol(sub)) {
					// Examining this entry means degraded-latency canonical
					// lookups; the periodic scrubber catches it next pass.
					continue
				}
				ok, err := m.IsContainer(ctx, sub)
				if err != nil {
					if Retryable(err) {
						continue
					}
					return err
				}
				if ok {
					seen[sub] = true
					continue
				}
				if err := walk(sub); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(""); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for rel := range seen {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out, nil
}

// RepairTick runs one shallow repair pass over every container of m,
// folding the outcome into the service's repair ledger (Service.Obs).
func (s *Service) RepairTick(ctx Ctx, m *Mount) (Report, error) {
	rep := Report{Repair: true}
	rels, err := m.listContainers(ctx)
	if err != nil {
		return rep, err
	}
	for _, rel := range rels {
		if m.volDegraded(ctx, m.containerVol(rel)) {
			// Canonical volume sick: defer the whole container rather than
			// grind degraded-latency ops and misdiagnose transient errors.
			rep.Deferred++
			continue
		}
		c, err := m.integrity(ctx, rel, false, true)
		if err != nil {
			rep.Problems = append(rep.Problems, Problem{Kind: kindUnreachable, Path: rel, Detail: err.Error()})
			continue
		}
		rep.merge(c)
	}
	s.reg.Counter("plfs.repair.ticks").Add(1)
	s.reg.Counter("plfs.repair.found").Add(int64(rep.Found()))
	s.reg.Counter("plfs.repair.repaired").Add(int64(rep.Repaired()))
	s.reg.Counter("plfs.repair.unrepairable").Add(int64(rep.Unrepairable()))
	s.reg.Counter("plfs.repair.deferred").Add(int64(rep.Deferred))
	return rep, nil
}

// RepairDaemon runs ticks repair passes, interval apart, each sleep
// charged through ctx's Sleeper — virtual time under the simulator, so
// the scrub cadence is deterministic in the seed; real sleep over osfs.
// Run it as its own simulator proc (or goroutine).  It returns the
// merged report.
func (s *Service) RepairDaemon(ctx Ctx, m *Mount, interval time.Duration, ticks int) Report {
	all := Report{Repair: true}
	for i := 0; i < ticks; i++ {
		ctx.sleep(interval)
		rep, err := s.RepairTick(ctx, m)
		if err != nil {
			all.Problems = append(all.Problems, Problem{Kind: kindUnreachable, Detail: fmt.Sprintf("tick %d: %v", i, err)})
			continue
		}
		all.merge(rep)
	}
	return all
}
