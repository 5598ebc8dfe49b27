package plfs

// Atomic commit protocol.  Container metadata that must never be
// observed half-written — the flattened global index, metadir size and
// generation records, and Repair-rebuilt index droppings — is written
// to a "<final>.tmp.<rank>" name and published with a single Rename.
// Readers, listDroppings, and the metadir parsers all ignore temp
// names, so a crash mid-commit leaves at worst an orphaned temp file
// (swept by every integrity pass), never a consumable torn file.
//
// Stores that have CondPutter (object stores) take a shorter
// path: the whole record publishes as one conditional PUT — put-if-absent
// replacing the rename-no-replace, put-if-generation replacing the
// remove+rename — so there is no temp name, no rename, and nothing for a
// crash to orphan.  Both paths give the same guarantee: the final name
// only ever appears with complete content.

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
	"strings"

	"plfs/internal/payload"
)

// tmpSuffix marks an unpublished commit temp file.
const tmpSuffix = ".tmp."

// tmpName returns the per-rank temp name a commit of final stages into.
func tmpName(final string, rank int) string {
	return fmt.Sprintf("%s%s%d", final, tmpSuffix, rank)
}

// isTmpName reports whether a base name is an unpublished commit temp.
func isTmpName(name string) bool { return strings.Contains(name, tmpSuffix) }

// writeFileAtomic commits buf to final: via create-temp, append, close,
// rename, or — over a store with CondPutter — as one conditional PUT,
// atomic by the store's contract.  Transient errors are absorbed below,
// call by call, by the retry interceptor (Mount.bind).  What that layer
// cannot reissue in place is a torn append (TornWrite): part of the
// payload landed.  This loop rebuilds from a fresh temp file on exactly
// that verdict, up to Retry.Attempts times, so duplicated or truncated
// content can never reach the final name — the damaged temp is
// discarded and final only ever appears complete.
//
// replace removes an existing final immediately before the rename (for
// rewriting a corrupt file in place, e.g. a Recover-rebuilt index).
// Without replace, a rename refused with ErrExist is reported as
// success: the publish already happened — by a racing peer committing
// the same record, or by an earlier attempt of ours whose rename
// applied despite an ambiguous error — and under this protocol same
// name means same committed content.  The duplicate temp is dropped.
func (m *Mount) writeFileAtomic(ctx Ctx, b Backend, final string, buf []byte, replace bool) error {
	once := func() error { return commitOnce(b, tmpName(final, ctx.Rank), final, buf, replace) }
	if cp, ok := CondPutterOf(b); ok {
		once = func() error { return condPutOnce(cp, final, buf, replace) }
	}
	pol := m.opt.Retry
	for k := 1; ; k++ {
		err := once()
		if err == nil || k >= pol.Attempts || !tornWrite(err) {
			return err
		}
		pause(ctx.Sleep, pol.delay(k, ctx.Rank))
	}
}

// tornWrite reports whether a failed write may have landed part of its
// payload (a torn append, or the append in flight at a crash point).
func tornWrite(err error) bool {
	var tw interface{ TornWrite() bool }
	return errors.As(err, &tw) && tw.TornWrite()
}

func commitOnce(b Backend, tmp, final string, buf []byte, replace bool) error {
	if err := b.Remove(tmp); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	f, err := b.Create(tmp)
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if _, err := f.Append(payload.FromBytes(buf)); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if replace {
		if err := b.Remove(final); err != nil && !errors.Is(err, iofs.ErrNotExist) {
			return err
		}
	}
	err = b.Rename(tmp, final)
	if err != nil && !replace && errors.Is(err, iofs.ErrExist) {
		b.Remove(tmp)
		return nil
	}
	return err
}

// condPutOnce is one attempt of the commit protocol over a CondPutter
// store.
func condPutOnce(cp CondPutter, final string, buf []byte, replace bool) error {
	if replace {
		// Put-if-generation: a losing writer gets a transient conflict,
		// which the retry interceptor reissues.
		return cp.PutReplace(final, buf)
	}
	err := cp.PutIfAbsent(final, buf)
	if err != nil && errors.Is(err, iofs.ErrExist) {
		// The rename protocol's ErrExist-without-replace verdict, one op
		// earlier: the record is already published — by a racing peer or
		// an earlier ambiguous attempt of ours — and under this protocol
		// same name means same committed content.
		return nil
	}
	return err
}

// sweepTmpFiles removes orphaned commit temp files from the container's
// metadir and hostdirs, returning the removed paths.  Temp files are
// invisible to every reader, so removal is always safe: any commit still
// in flight recreates its temp from scratch.
func (m *Mount) sweepTmpFiles(ctx Ctx, rel string) ([]string, error) {
	type dirRef struct {
		b   Backend
		dir string
	}
	cpath, vc := m.containerPath(rel)
	dirs := []dirRef{{ctx.Vols[vc], path.Join(cpath, metaDir)}}
	ids, moved, err := m.hostdirIDs(ctx, rel)
	if err != nil {
		return nil, err
	}
	for _, i := range ids {
		for _, loc := range m.hostdirLocs(rel, i, moved) {
			if m.volDegraded(ctx, loc.vol) {
				// Temp files are invisible to readers; sweeping this hostdir
				// can wait for the volume's breaker to close rather than
				// grinding a degraded-latency listing every pass.
				continue
			}
			dirs = append(dirs, dirRef{ctx.Vols[loc.vol], loc.path})
		}
	}
	var removed []string
	for _, d := range dirs {
		ents, err := d.b.ReadDir(d.dir)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				continue
			}
			return removed, err
		}
		for _, e := range ents {
			if e.Dir || !isTmpName(e.Name) {
				continue
			}
			p := path.Join(d.dir, e.Name)
			if err := d.b.Remove(p); err != nil && !errors.Is(err, iofs.ErrNotExist) {
				return removed, err
			}
			removed = append(removed, p)
		}
	}
	sort.Strings(removed)
	return removed, nil
}
