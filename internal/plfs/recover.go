package plfs

import (
	"fmt"
	"slices"
)

// Data-dropping framing: at close, each writer appends a recovery footer
// to its data dropping — a copy of its index entries, a frameFooter frame
// (index.go) — so a lost or corrupt index dropping can be rebuilt from the
// data alone (Repair, the plfs_recover tool).  Under Options.Checksum the
// footer adds a CRC32C per entry's data extent, which Scrub and
// Options.VerifyData check.  It sits past every data extent, so physical
// offsets are unaffected; a writer with no entries writes no footer.

// extentOK is the bounds rule every integrity check applies to an index
// record, footer entry or index dropping alike: non-empty and wholly
// inside the dropping's data region [0, dataEnd), which ends where the
// recovery footer begins.
func extentOK(e Entry, dataEnd int64) bool {
	return e.Length > 0 && e.PhysOff >= 0 && e.PhysOff+e.Length <= dataEnd
}

// readFrameFooter reads and validates the recovery footer of the data
// dropping at ref — its trailer, which gives its length, then the rest —
// and returns its entries (dropping ids zeroed), their data CRCs (nil for
// a v1 footer), and the size of the data region before it.
func (m *Mount) readFrameFooter(ctx Ctx, ref droppingRef) ([]Entry, []uint32, int64, error) {
	f, err := ctx.Vols[ref.Vol].OpenRead(ref.Data)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	size := f.Size()
	if size < 16 {
		return nil, nil, 0, fmt.Errorf("plfs: %s: no recovery footer (%d bytes)", ref.Data, size)
	}
	pl, err := f.ReadAt(size-min64(size, 24), min64(size, 24))
	if err != nil {
		return nil, nil, 0, err
	}
	tail := pl.Materialize()
	n, tlen, crc, err := trailerOf(frameFooter, tail)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("plfs: %s: %w", ref.Data, err)
	}
	per := uint64(EntryBytes)
	if crc {
		per += 4
	}
	if n > uint64(size)/per || int64(n*per)+int64(tlen) > size {
		return nil, nil, 0, fmt.Errorf("plfs: %s: corrupt recovery footer (%d entries in %d bytes)", ref.Data, n, size)
	}
	dataEnd := size - int64(tlen) - int64(n*per)
	if pl, err = f.ReadAt(dataEnd, int64(n*per)); err != nil {
		return nil, nil, 0, err
	}
	fr, err := decodeFrame(frameFooter, slices.Concat(pl.Materialize(), tail[len(tail)-tlen:]))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("plfs: %s: %w", ref.Data, err)
	}
	var covered int64
	for i, ent := range fr.ents {
		if !extentOK(ent, dataEnd) {
			return nil, nil, 0, fmt.Errorf("plfs: %s: corrupt recovery footer (extent [%d,%d) outside %d data bytes)",
				ref.Data, ent.PhysOff, ent.PhysOff+ent.Length, dataEnd)
		}
		fr.ents[i].Dropping = 0
		covered += ent.Length
	}
	if covered != dataEnd {
		return nil, nil, 0, fmt.Errorf("plfs: %s: corrupt data framing (footer covers %d of %d data bytes)",
			ref.Data, covered, dataEnd)
	}
	return fr.ents, fr.sums, dataEnd, nil
}

// rebuildIndex replaces d's index dropping with one reconstructed from
// footer entries.  The replacement is committed atomically (temp + rename
// over the corrupt original), so a crash mid-rebuild leaves either the old
// index or the new one — never a torn rebuild — and the container stays
// recoverable from the footer.
func (m *Mount) rebuildIndex(ctx Ctx, d droppingRef, entries []Entry) error {
	ipath := indexPathFor(d)
	buf := appendFrame(nil, frame{kind: frameIndex, crc: m.opt.Checksum, recs: m.indexRecs(entries)})
	if err := m.writeFileAtomic(ctx, ctx.Vols[d.Vol], ipath, buf, true); err != nil {
		return err
	}
	// A rebuilt index re-enters the replication contract immediately
	// (replace semantics: stale replicas of the torn original converge).
	m.replicateFile(ctx, ipath, buf)
	return nil
}
