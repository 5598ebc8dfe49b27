package plfs

// Index replication (DESIGN.md §15).  Under Options.IndexReplicas = N,
// every index artifact — per-writer index droppings and the flattened
// global index — commits to N distinct volumes: the primary at its
// canonical path, and replica k at the same container-relative path on
// volume (primaryVol+k) mod V.  Replicas are invisible to the normal
// dropping discovery (listDroppings walks only canonical hostdir
// locations), so they can never double-count; readers derive replica
// paths from the primary on demand and fail over replica-by-replica —
// before AllowPartial ever gets to skip a shard — turning a lost or
// browned-out index volume into a transparent recovery.
//
// Commit ordering: the primary commits first and must succeed; replica
// commits are best-effort (failures are counted as
// plfs.replica.write_errors and healed later by the repair daemon).
// Each copy goes through the writeFileAtomic temp+rename protocol, so a
// crash anywhere leaves every volume with either a complete copy or
// nothing — never a torn replica.

import (
	"errors"
	iofs "io/fs"
	"path"
	"strings"
	"time"

	"plfs/internal/payload"
)

// replicas resolves Options.IndexReplicas to an effective copy count,
// clamped to the volume count (replica placement needs distinct
// volumes).
func (m *Mount) replicas() int {
	r := m.opt.IndexReplicas
	if r > len(m.roots) {
		r = len(m.roots)
	}
	if r < 1 {
		r = 1
	}
	return r
}

// replicaPath maps a primary backend path to its k-th replica location:
// the same volume-relative path on volume (primaryVol+k) mod V.
func (m *Mount) replicaPath(p string, k int) (string, int) {
	v := m.volOfPath(p)
	rv := (v + k) % len(m.roots)
	rel := strings.TrimPrefix(p, m.roots[v])
	return path.Join(m.roots[rv], rel), rv
}

// ensureDirs creates dir and any missing parents on volume v (replica
// volumes have no shadow-container skeleton until a replica lands).
func (m *Mount) ensureDirs(ctx Ctx, v int, dir string) error {
	root := m.roots[v]
	rel := strings.Trim(strings.TrimPrefix(dir, root), "/")
	if rel == "" {
		return nil
	}
	p := root
	for _, seg := range strings.Split(rel, "/") {
		p = path.Join(p, seg)
		if err := ctx.Vols[v].Mkdir(p); err != nil && !errors.Is(err, iofs.ErrExist) {
			return err
		}
	}
	return nil
}

// commitReplicated writes final via writeFileAtomic and then copies it
// to the replica slots.  The primary commit's verdict is the caller's;
// replica failures are tolerated (counted, repaired later).
func (m *Mount) commitReplicated(ctx Ctx, final string, buf []byte, replace bool) error {
	v := m.volOfPath(final)
	if err := m.writeFileAtomic(ctx, ctx.Vols[v], final, buf, replace); err != nil {
		return err
	}
	m.replicateFile(ctx, final, buf)
	return nil
}

// replicateFile copies final's committed bytes to its replica slots
// (replace semantics: a stale or partial replica converges to buf).
// It returns how many replica commits failed.
func (m *Mount) replicateFile(ctx Ctx, final string, buf []byte) int {
	failed := 0
	for k := 1; k < m.replicas(); k++ {
		rp, rv := m.replicaPath(final, k)
		if m.volDegraded(ctx, rv) {
			// A degraded replica slot would put a multi-op atomic commit
			// on the writer's critical path at browned-out latency.  Leave
			// the index under-replicated: the repair daemon re-replicates
			// once the slot's breaker closes.
			failed++
			if ctx.Obs != nil {
				ctx.Obs.Counter("plfs.replica.deferred").Add(1)
			}
			continue
		}
		err := m.ensureDirs(ctx, rv, path.Dir(rp))
		if err == nil {
			err = m.writeFileAtomic(ctx, ctx.Vols[rv], rp, buf, true)
		}
		if err != nil {
			failed++
			if ctx.Obs != nil {
				ctx.Obs.Counter("plfs.replica.write_errors").Add(1)
			}
		}
	}
	return failed
}

// removeReplicas deletes final's replica copies — must run wherever the
// primary is removed (truncate, unlink, repair dropping a corrupt
// global index), or a later failover would resurrect stale bytes.
func (m *Mount) removeReplicas(ctx Ctx, final string) {
	for k := 1; k < m.replicas(); k++ {
		rp, rv := m.replicaPath(final, k)
		_ = ctx.Vols[rv].Remove(rp)
	}
}

// fillMissingIndex synthesizes the canonical index path for a data
// dropping whose index file was not found by discovery.  With
// replication on, a copy may survive on a replica volume, so the read
// path must attempt the canonical path (and fail over) instead of
// silently dropping the shard.  Legitimately index-less droppings —
// empty data files from writers that never wrote — stay skipped.
func (m *Mount) fillMissingIndex(ctx Ctx, d *droppingRef) bool {
	if m.replicas() <= 1 || d.Data == "" {
		return false
	}
	if fi, err := ctx.Vols[d.Vol].Stat(d.Data); err == nil && fi.Size == 0 {
		return false
	}
	d.Index = indexPathFor(*d)
	return true
}

// readAll opens path and reads its full contents.
func readAll(b Backend, path string) (payload.List, int64, error) {
	f, err := b.OpenRead(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size := f.Size()
	pl, err := f.ReadAt(0, size)
	return pl, size, err
}

// readIndexReplicated reads one index file (an index dropping or the
// global index) with the self-healing policy:
//
//   - breaker open on the primary's volume → a healthy replica is tried
//     first (the read is hedged away from the browned-out target);
//   - a failed candidate fails over to the next replica, so only a loss
//     of every copy surfaces an error (and only then can AllowPartial
//     skip the shard);
//   - a primary read that succeeds but exceeds the volume's rolling-p99
//     slowness cutoff reissues against a replica and the first success
//     wins.
//
// Every non-primary attempt charges plfs.read.hedged; a non-primary
// success charges plfs.read.hedge_wins.  Error failover additionally
// counts plfs.replica.failover.  With replication and hedging both off
// this is exactly the old single-path read.
//
// skipDegradedOnMissing adds existence-probe semantics: a candidate on a
// degraded volume is not attempted once a healthy volume has already
// answered ErrNotExist — the caller is probing for a file that usually
// does not exist (the opportunistic global-index lookup), and paying a
// browned-out round-trip to hear "not found" again taxes every open.  A
// non-neutral failure (a retryable error: the healthy copy is broken,
// not absent) re-enables the degraded candidates, so genuine loss still
// fails over.
func (m *Mount) readIndexReplicated(ctx Ctx, primary string, skipDegradedOnMissing bool) (payload.List, int64, error) {
	R := m.replicas()
	pv := m.volOfPath(primary)
	if R <= 1 {
		return readAll(ctx.Vols[pv], primary)
	}
	paths := make([]string, R)
	vols := make([]int, R)
	paths[0], vols[0] = primary, pv
	for k := 1; k < R; k++ {
		paths[k], vols[k] = m.replicaPath(primary, k)
	}
	// Candidate order: primary first, unless hedging is on and the
	// primary's breaker is open — then the first healthy replica leads
	// and the primary falls to the back (it still serves as last resort).
	// State, not Avoid: foreground reads steer and never spend the
	// half-open probe budget — the periodic scrub is the prober, off the
	// workload's critical path (see Health.Avoid).
	order := make([]int, 0, R)
	hedging := false // breaker-open reorder (vs plain error failover)
	unhealthy := func(v int) bool {
		return m.health.State(m.roots[v], ctx.now()) != BreakerClosed
	}
	if m.opt.HedgedReads && m.health != nil && unhealthy(pv) {
		hedging = true
		for k := 1; k < R; k++ {
			if !unhealthy(vols[k]) {
				order = append(order, k)
			}
		}
		order = append(order, 0)
		for k := 1; k < R; k++ {
			if unhealthy(vols[k]) {
				order = append(order, k)
			}
		}
	} else {
		for k := 0; k < R; k++ {
			order = append(order, k)
		}
	}
	var firstErr error
	healthyTried := 0
	onlyMissing := true
	for n, k := range order {
		if skipDegradedOnMissing && m.health != nil && unhealthy(vols[k]) &&
			healthyTried > 0 && onlyMissing {
			continue
		}
		if m.health == nil || !unhealthy(vols[k]) {
			healthyTried++
		}
		// Hedged = a replica attempt made because the breaker steered us
		// there; a plain error failover (primary copy lost or sick) only
		// charges the failover counter, on success below.
		if k != 0 && hedging && ctx.Obs != nil {
			ctx.Obs.Counter("plfs.read.hedged").Add(1)
		}
		t0 := ctx.now()
		pl, size, err := readAll(ctx.Vols[vols[k]], paths[k])
		if err == nil {
			if k != 0 && ctx.Obs != nil {
				if hedging {
					ctx.Obs.Counter("plfs.read.hedge_wins").Add(1)
				}
				if n > 0 {
					ctx.Obs.Counter("plfs.replica.failover").Add(1)
				}
			}
			// Latency hedge: a slow primary success reissues against the
			// next candidate and the faster copy's bytes win (identical
			// content either way; this claws back tail latency).
			if k == 0 && n+1 < len(order) && m.opt.HedgedReads && m.health != nil &&
				m.health.Slow(m.roots[pv], time.Duration(ctx.now()-t0), size) {
				if ctx.Obs != nil {
					ctx.Obs.Counter("plfs.read.hedged").Add(1)
				}
				hk := order[n+1]
				if hpl, hsize, herr := readAll(ctx.Vols[vols[hk]], paths[hk]); herr == nil {
					if ctx.Obs != nil {
						ctx.Obs.Counter("plfs.read.hedge_wins").Add(1)
					}
					return hpl, hsize, nil
				}
			}
			return pl, size, nil
		}
		if !errors.Is(err, iofs.ErrNotExist) {
			onlyMissing = false
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, 0, firstErr
}
