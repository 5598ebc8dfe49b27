package plfs

// Atomic commit protocol.  Container metadata that must never be
// observed half-written — the flattened global index, metadir size and
// generation records, and Recover-rebuilt index droppings — is written
// to a "<final>.tmp.<rank>" name and published with a single Rename.
// Readers, listDroppings, and the metadir parsers all ignore temp
// names, so a crash mid-commit leaves at worst an orphaned temp file
// (swept by Scrub and Recover), never a consumable torn file.
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
// atomic by the store's contract.  Every retry of the rename protocol
// starts over from a fresh temp file, so an append that partially
// applied (a torn write, an ambiguous EIO) can never leave duplicated or
// truncated content under the final name — the damaged temp is discarded
// and final only ever appears complete.
//
// replace removes an existing final immediately before the rename (for
// rewriting a corrupt file in place, e.g. a Recover-rebuilt index).
// Without replace, a rename refused with ErrExist is reported as
// success: the publish already happened — by a racing peer committing
// the same record, or by an earlier attempt of ours whose rename
// applied despite an ambiguous error — and under this protocol same
// name means same committed content.  The duplicate temp is dropped.
func (c Ctx) writeFileAtomic(b Backend, final string, buf []byte, pol RetryPolicy, replace bool) error {
	once := func() error { return c.commitOnce(b, tmpName(final, c.Rank), final, buf, replace) }
	if cp, ok := CondPutterOf(b); ok {
		once = func() error { return c.condPutOnce(cp, final, buf, replace) }
	}
	for k := 1; ; k++ {
		err := once()
		if err == nil || k >= pol.Attempts || !commitRetryable(err) {
			return err
		}
		c.retrySleep(pol.delay(k, c.Rank))
	}
}

func (c Ctx) commitOnce(b Backend, tmp, final string, buf []byte, replace bool) error {
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
func (c Ctx) condPutOnce(cp CondPutter, final string, buf []byte, replace bool) error {
	if replace {
		// Put-if-generation: a losing writer gets a transient conflict
		// and the loop above re-reads and reissues.
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

// commitRetryable extends the usual retry classification: a torn write
// is permanent for an in-place append but safe to retry here, because
// each attempt rebuilds the temp file from scratch.
func commitRetryable(err error) bool {
	if Retryable(err) {
		return true
	}
	var tw interface{ TornWrite() bool }
	return errors.As(err, &tw) && tw.TornWrite()
}
