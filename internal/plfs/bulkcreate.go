package plfs

// Batched collective create: the 100k-rank answer to the open storm.
//
// The classic collective Create (writer.go) already coalesces the
// container skeleton through rank 0, but every rank still issues its own
// hostdir mkdir, openhosts create, and data-dropping create — at 100k
// ranks that is hundreds of thousands of serialized metadata RPCs into a
// handful of hot directories.  When the mount opts in (Options.BulkCreate)
// and every volume's store has BulkCreator, rank 0 instead gathers
// each rank's placement (subdir, stamp, host leadership), assembles one
// bulk-create batch per volume — directories first, files grouped by
// parent — and ships each as a single amortized RPC.  The verdict and the
// container's rebalance forwarding map are broadcast back, and each rank
// merely OpenWrites its pre-created dropping on the wide metadata read
// pool (Li/Latham's "Parallel Data Object Creation" shape).
//
// Because rank 0 resolves forwarding markers before placing droppings,
// batched writers follow migrated hostdirs to their new volumes — the
// rebalance protocol (rebalance.go) and this path compose.

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
)

// bulkCapable reports whether the batched create path can run: every
// volume's store must have BulkCreator (whatever is interposed on it).
func bulkCapable(vols []Backend) bool {
	for _, b := range vols {
		if _, ok := BulkCreatorOf(b); !ok {
			return false
		}
	}
	return len(vols) > 0
}

// bulkReq is one rank's contribution to the batched open.
type bulkReq struct {
	Rank   int
	Host   int
	Leader bool
	Subdir int
	Stamp  string
}

// bulkVerdict is rank 0's broadcast answer: the batch outcome plus the
// container's forwarding map, so every rank places its dropping paths
// exactly where rank 0 created them.
type bulkVerdict struct {
	Err   string
	Moved map[int]int
}

// createBatched is the collective bulk-create open (see the file comment).
// The caller (Mount.Create) has already cleaned rel, wrapped the health
// context, and passed admission.
func (m *Mount) createBatched(ctx Ctx, rel string) (*Writer, error) {
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.create.batched").Add(1)
	}
	subdir := m.placeSubdir(ctx, rel, ctx.Host)
	stamp := fmt.Sprintf("%d.%d", ctx.now(), ctx.Rank)
	req := bulkReq{Rank: ctx.Rank, Host: ctx.Host, Leader: ctx.HostLeader, Subdir: subdir, Stamp: stamp}
	reqs := ctx.Comm.Gather(0, 64, req)
	var res any
	if ctx.Comm.Rank() == 0 {
		res = m.bulkCreateRoot(ctx, rel, reqs)
	}
	verdict := ctx.Comm.Bcast(0, 256, res).(bulkVerdict)
	if verdict.Err != "" {
		return nil, errors.New(verdict.Err)
	}

	// From here the flow mirrors Create: pin the container state for the
	// session and advance its generation.
	st := m.pin(rel, ctx.Tenant)
	ok := false
	defer func() {
		if !ok {
			m.unpin(st)
		}
	}()
	m.advanceGen(st, false)

	w := &Writer{m: m, ctx: ctx, rel: rel, st: st}
	w.vc = m.containerVol(rel)
	w.subdir = subdir
	w.stamp = stamp
	hpath, hv := m.hostdirPath(rel, w.subdir)
	if mv, moved := verdict.Moved[w.subdir]; moved && mv != hv && mv < len(m.roots) {
		hpath = path.Join(m.roots[mv], rel, fmt.Sprintf("%s%d", hostdirPrefix, w.subdir))
		hv = mv
	}
	w.subVol = hv
	w.dataPath = path.Join(hpath, dataPrefix+w.stamp)
	w.indexPath = path.Join(hpath, indexPrefix+w.stamp)
	df, err := ctx.Vols[hv].OpenWrite(w.dataPath)
	if err != nil {
		return nil, err
	}
	w.dataFile = df
	ok = true
	return w, nil
}

// bulkCreateRoot is rank 0's half of the batched open: it creates the
// container skeleton, resolves forwarding markers, assembles one batch
// per volume, and ships each through the BulkCreator capability.
func (m *Mount) bulkCreateRoot(ctx Ctx, rel string, reqVals []any) bulkVerdict {
	if err := m.createSkeleton(ctx, rel); err != nil {
		return bulkVerdict{Err: err.Error()}
	}
	cpath, vc := m.containerPath(rel)
	ents, err := ctx.Vols[vc].ReadDir(cpath)
	if err != nil {
		return bulkVerdict{Err: err.Error()}
	}
	var moved map[int]int
	for id, t := range movedTargets(ents) {
		if t.Vol < len(m.roots) {
			if moved == nil {
				moved = map[int]int{}
			}
			moved[id] = t.Vol
		}
	}

	// Assemble per-volume batches.  Directories sort ahead of the files
	// under them (a parent path is a strict prefix), and sorting files
	// groups same-parent entries into runs — exactly what the BulkCreator
	// contract asks for.  Exclusive entries (data droppings) must be
	// fresh; everything else tolerates ErrExist, the usual polite race.
	type volBatch struct {
		dirs  []string
		files []string
	}
	batches := make([]volBatch, len(m.roots))
	seen := map[string]bool{}
	exclusive := map[string]bool{}
	addDir := func(v int, p string) {
		if !seen[p] {
			seen[p] = true
			batches[v].dirs = append(batches[v].dirs, p)
		}
	}
	addFile := func(v int, p string, excl bool) {
		if !seen[p] {
			seen[p] = true
			exclusive[p] = excl
			batches[v].files = append(batches[v].files, p)
		}
	}
	for _, rv := range reqVals {
		r := rv.(bulkReq)
		hv := m.subdirVol(vc, r.Subdir)
		mv, isMoved := moved[r.Subdir]
		if isMoved && mv != hv {
			hv = mv
		}
		hpath := path.Join(m.roots[hv], rel, fmt.Sprintf("%s%d", hostdirPrefix, r.Subdir))
		if hv != vc {
			// Shadow container on the remote volume; the canonical metalink
			// marker only for hash-placed hostdirs — a migrated hostdir is
			// already advertised by its forwarding marker.
			addDir(hv, path.Join(m.roots[hv], rel))
			if !isMoved {
				addFile(vc, path.Join(cpath, fmt.Sprintf("%s%d%s", hostdirPrefix, r.Subdir, metalinkSufx)), false)
			}
		}
		addDir(hv, hpath)
		if r.Leader {
			addFile(vc, path.Join(cpath, openHostsDir, fmt.Sprintf("host.%d", r.Host)), false)
		}
		addFile(hv, path.Join(hpath, dataPrefix+r.Stamp), true)
	}
	for v := range batches {
		sort.Strings(batches[v].dirs)
		sort.Strings(batches[v].files)
		ops := make([]BulkOp, 0, len(batches[v].dirs)+len(batches[v].files))
		for _, p := range batches[v].dirs {
			ops = append(ops, BulkOp{Path: p, Dir: true})
		}
		for _, p := range batches[v].files {
			ops = append(ops, BulkOp{Path: p})
		}
		if len(ops) == 0 {
			continue
		}
		bc, _ := BulkCreatorOf(ctx.Vols[v]) // bulkCapable gated this path
		for i, err := range bc.CreateBulk(ops) {
			if err == nil || errors.Is(err, iofs.ErrExist) && !exclusive[ops[i].Path] {
				continue
			}
			return bulkVerdict{Err: fmt.Sprintf("plfs: bulk create %s: %v", ops[i].Path, err)}
		}
	}
	return bulkVerdict{Moved: moved}
}
