package plfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"
	"path"
	"strings"
)

// Data-dropping framing: at close, each writer appends a recovery footer
// to its data dropping — a self-describing copy of its index entries —
// so a lost or corrupt index dropping can be rebuilt from the data alone
// (the plfs_recover tool).  Layout, little-endian:
//
//	v1: [ data ][ entries: n × EntryBytes ][ uint64 n ][ uint64 magic ]
//	v2: [ data ][ entries: n × EntryBytes ][ crcs: n × uint32 ]
//	    [ uint32 footer crc32c ][ uint32 0 ][ uint64 n ][ uint64 magic2 ]
//
// v2 (written under Options.Checksum) adds one CRC32C per entry's data
// extent — the end-to-end integrity record Scrub and Options.VerifyData
// check — plus a CRC over the footer itself.  The footer sits past every
// data extent, so physical offsets in the index are unaffected.  Writers
// that recorded no entries skip the footer, keeping empty droppings zero
// bytes.
const (
	frameMagic       = uint64(0x504c46535f524543) // "CER_SFLP" backwards: "PLFS_REC"
	frameMagic2      = uint64(0x504c46535f524332) // "PLFS_RC2"
	frameTrailerLen  = 16
	frameTrailer2Len = 24
)

// frameFooterLen returns the v1 footer size for an index of n entries.
func frameFooterLen(n int) int64 { return int64(n)*EntryBytes + frameTrailerLen }

// frameFooterLen2 returns the v2 footer size for an index of n entries.
func frameFooterLen2(n int) int64 { return int64(n)*(EntryBytes+4) + frameTrailer2Len }

// encodeFrameFooter serializes the v1 (unchecksummed) recovery footer.
func encodeFrameFooter(entries []Entry) []byte {
	body := len(entries) * EntryBytes
	out := make([]byte, frameFooterLen(len(entries)))
	putEntries(out, entries)
	binary.LittleEndian.PutUint64(out[body:], uint64(len(entries)))
	binary.LittleEndian.PutUint64(out[body+8:], frameMagic)
	return out
}

// encodeFrameFooterSums serializes the v2 recovery footer with per-extent
// data CRCs.
func encodeFrameFooterSums(entries []Entry, sums []uint32) []byte {
	if len(sums) != len(entries) {
		panic("plfs: entry/checksum count mismatch")
	}
	out := make([]byte, frameFooterLen2(len(entries)))
	putEntries(out, entries)
	body := len(entries) * EntryBytes
	for i, s := range sums {
		binary.LittleEndian.PutUint32(out[body+4*i:], s)
	}
	covered := len(out) - frameTrailer2Len
	tr := out[covered:]
	binary.LittleEndian.PutUint32(tr[0:], crc32.Checksum(out[:covered], castagnoli))
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(entries)))
	binary.LittleEndian.PutUint64(tr[16:], frameMagic2)
	return out
}

// readFrameFooter reads and validates the recovery footer of the data
// dropping at ref, returning the reconstructed entries, the per-extent
// data CRCs (nil for a v1 footer), and the size of the data region (the
// dropping minus its footer).
func (m *Mount) readFrameFooter(ctx Ctx, ref droppingRef) ([]Entry, []uint32, int64, error) {
	pol := m.opt.Retry
	b := ctx.Vols[ref.Vol]
	var entries []Entry
	var sums []uint32
	var dataEnd int64
	err := ctx.retry(pol, func() error {
		f, e := b.OpenRead(ref.Data)
		if e != nil {
			return e
		}
		defer f.Close()
		size := f.Size()
		if size < frameTrailerLen {
			return fmt.Errorf("plfs: %s: no recovery footer (%d bytes)", ref.Data, size)
		}
		tn := int64(frameTrailer2Len)
		if size < tn {
			tn = frameTrailerLen
		}
		pl, e := f.ReadAt(size-tn, tn)
		if e != nil {
			return e
		}
		tail := pl.Materialize()
		magic := binary.LittleEndian.Uint64(tail[len(tail)-8:])
		n := binary.LittleEndian.Uint64(tail[len(tail)-16 : len(tail)-8])
		var flen, trailer int64
		switch magic {
		case frameMagic:
			trailer = frameTrailerLen
			if n > uint64(size/EntryBytes) {
				return fmt.Errorf("plfs: %s: corrupt recovery footer (%d entries in %d bytes)", ref.Data, n, size)
			}
			flen = int64(n) * EntryBytes
		case frameMagic2:
			trailer = frameTrailer2Len
			if size < frameTrailer2Len || n > uint64(size/(EntryBytes+4)) {
				return fmt.Errorf("plfs: %s: corrupt recovery footer (%d entries in %d bytes)", ref.Data, n, size)
			}
			flen = int64(n) * (EntryBytes + 4)
		default:
			return fmt.Errorf("plfs: %s: no recovery footer (bad magic)", ref.Data)
		}
		if flen+trailer > size {
			return fmt.Errorf("plfs: %s: corrupt recovery footer (%d entries in %d bytes)", ref.Data, n, size)
		}
		pl, e = f.ReadAt(size-trailer-flen, flen)
		if e != nil {
			return e
		}
		body := pl.Materialize()
		var ss []uint32
		if magic == frameMagic2 {
			if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail[len(tail)-24:len(tail)-20]); got != want {
				return fmt.Errorf("plfs: %s: recovery footer checksum mismatch (crc32c %08x, trailer says %08x)", ref.Data, got, want)
			}
			if r := binary.LittleEndian.Uint32(tail[len(tail)-20 : len(tail)-16]); r != 0 {
				return fmt.Errorf("plfs: %s: corrupt recovery footer (reserved field %08x)", ref.Data, r)
			}
			ss = make([]uint32, n)
			sb := body[int64(n)*EntryBytes:]
			for i := range ss {
				ss[i] = binary.LittleEndian.Uint32(sb[i*4:])
			}
			body = body[:int64(n)*EntryBytes]
		}
		es, e := decodeEntries(body, 0)
		if e != nil {
			return fmt.Errorf("plfs: %s: corrupt recovery footer: %w", ref.Data, e)
		}
		dataEnd = size - trailer - flen
		var covered int64
		for _, ent := range es {
			if ent.Length <= 0 || ent.PhysOff < 0 || ent.PhysOff+ent.Length > dataEnd {
				return fmt.Errorf("plfs: %s: corrupt recovery footer (extent [%d,%d) outside %d data bytes)",
					ref.Data, ent.PhysOff, ent.PhysOff+ent.Length, dataEnd)
			}
			covered += ent.Length
		}
		if covered != dataEnd {
			return fmt.Errorf("plfs: %s: corrupt data framing (footer covers %d of %d data bytes)",
				ref.Data, covered, dataEnd)
		}
		entries, sums = es, ss
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return entries, sums, dataEnd, nil
}

// RecoverReport summarizes a Recover pass over one container.
type RecoverReport struct {
	Droppings     int      `json:"droppings"`      // droppings examined
	Intact        int      `json:"intact"`         // index present and consistent (or nothing to lose)
	Rebuilt       []string `json:"rebuilt"`        // index droppings reconstructed from data framing
	Unrecoverable []string `json:"unrecoverable"`  // data droppings with neither index nor usable footer
	DroppedGlobal bool     `json:"dropped_global"` // a corrupt flattened global index was removed
	RemovedTmp    []string `json:"removed_tmp"`    // orphaned commit temp files deleted
	Problems      []string `json:"problems"`       // human-readable detail per unrecoverable dropping
}

// OK reports whether every dropping is now reachable through an index.
func (r RecoverReport) OK() bool { return len(r.Unrecoverable) == 0 }

// String renders a human-readable summary.
func (r RecoverReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "droppings %d: intact %d, rebuilt %d, unrecoverable %d",
		r.Droppings, r.Intact, len(r.Rebuilt), len(r.Unrecoverable))
	if r.DroppedGlobal {
		b.WriteString("\nremoved corrupt global index")
	}
	for _, p := range r.RemovedTmp {
		b.WriteString("\nREMOVED TMP: " + p)
	}
	for _, p := range r.Rebuilt {
		b.WriteString("\nREBUILT: " + p)
	}
	for _, p := range r.Problems {
		b.WriteString("\nUNRECOVERABLE: " + p)
	}
	return b.String()
}

// Recover reconstructs lost or corrupt index droppings from their data
// droppings' recovery footers — the plfs_recover administrative tool.
// For every dropping whose index is missing or unreadable, the footer is
// validated and an index dropping rewritten from it; droppings with
// neither a parseable index nor a usable footer are reported
// unrecoverable (their bytes stay unreachable).  A corrupt flattened
// global index, which would keep masking the repaired per-writer
// indexes, is removed.  Recover returns an error only when the container
// itself cannot be examined; per-dropping failures land in the report.
func (m *Mount) Recover(ctx Ctx, rel string) (RecoverReport, error) {
	ctx = m.healthCtx(ctx)
	rel = clean(rel)
	rep := RecoverReport{}
	if ok, err := m.IsContainer(ctx, rel); err != nil {
		return rep, err
	} else if !ok {
		return rep, fmt.Errorf("plfs: recover %s: not a container: %w", rel, iofs.ErrNotExist)
	}
	pol := m.opt.Retry
	sp := ctx.Obs.StartSpan("recover")
	defer sp.End()

	// A corrupt global index hides the per-writer indexes in every read
	// mode; validate it first and clear it if unreadable.
	gsp := sp.Child("global-index")
	cpath, vc := m.containerPath(rel)
	gp := path.Join(cpath, metaDir, globalIndex)
	if pl, _, err := ctx.readAllRetried(ctx.Vols[vc], gp, pol); err == nil {
		if _, _, derr := decodeGlobalIndexAuto(pl.Materialize()); derr != nil {
			if rmErr := ctx.Vols[vc].Remove(gp); rmErr != nil && !errors.Is(rmErr, iofs.ErrNotExist) {
				gsp.End()
				return rep, rmErr
			}
			// Replica copies must go with the primary, or a later
			// replicated read would resurrect the corrupt index.
			m.removeReplicas(ctx, gp)
			rep.DroppedGlobal = true
		}
	} else if !errors.Is(err, iofs.ErrNotExist) {
		gsp.End()
		return rep, err
	}
	gsp.End()

	// Sweep orphaned commit temp files: a crash between create and
	// rename leaves "<final>.tmp.<rank>" debris that no reader consumes
	// but that would otherwise accumulate on the backing volumes.
	ssp := sp.Child("sweep")
	removedTmp, err := m.sweepTmpFiles(ctx, rel)
	ssp.End()
	if err != nil {
		return rep, err
	}
	rep.RemovedTmp = removedTmp

	wsp := sp.Child("walk")
	defer wsp.End()
	drops, err := m.listDroppings(ctx, rel)
	if err != nil {
		return rep, err
	}
	rep.Droppings = len(drops)
	changed := rep.DroppedGlobal
	for _, d := range drops {
		indexOK, indexCount := false, -1
		if d.Index != "" {
			if pl, _, err := ctx.readAllRetried(ctx.Vols[d.Vol], d.Index, pol); err == nil {
				if recs, derr := decodeIndexDropping(pl.Materialize(), 0); derr == nil {
					// The footer stays per-entry; compare expanded counts so a
					// run-compressed index matches its uncompressed footer.
					indexOK, indexCount = true, expandedCount(recs)
				}
			}
		}
		entries, _, _, footErr := m.readFrameFooter(ctx, d)
		switch {
		case footErr == nil && indexOK && indexCount == len(entries):
			rep.Intact++
		case footErr == nil:
			ipath, err := m.rebuildIndex(ctx, d, entries)
			if err != nil {
				rep.Unrecoverable = append(rep.Unrecoverable, d.Data)
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: rebuilding index: %v", d.Data, err))
				continue
			}
			rep.Rebuilt = append(rep.Rebuilt, ipath)
			changed = true
		case indexOK:
			// Legacy (unframed) dropping with a healthy index.
			rep.Intact++
		default:
			if fi, err := ctx.Vols[d.Vol].Stat(d.Data); err == nil && fi.Size == 0 && d.Index == "" {
				rep.Intact++ // an empty dropping has nothing to lose
				continue
			}
			rep.Unrecoverable = append(rep.Unrecoverable, d.Data)
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", d.Data, footErr))
		}
	}
	if changed {
		m.invalidateState(rel, ctx.Tenant)
	}
	if ctx.Obs != nil {
		ctx.Obs.Counter("plfs.recover.ops").Add(1)
		ctx.Obs.Counter("plfs.recover.rebuilt").Add(int64(len(rep.Rebuilt)))
		ctx.Obs.Counter("plfs.recover.unrecoverable").Add(int64(len(rep.Unrecoverable)))
	}
	return rep, nil
}

// rebuildIndex replaces d's index dropping with one reconstructed from
// footer entries, returning the index path written.  The replacement is
// committed atomically (temp + rename over the corrupt original), so a
// crash mid-rebuild leaves either the old index or the new one — never a
// torn rebuild — and the container stays recoverable from the footer.
func (m *Mount) rebuildIndex(ctx Ctx, d droppingRef, entries []Entry) (string, error) {
	ipath := d.Index
	if ipath == "" {
		dir, base := path.Split(d.Data)
		ipath = dir + indexPrefix + strings.TrimPrefix(base, dataPrefix)
	}
	recs := compressRecs(entries)
	if m.opt.NoRunCompression {
		recs = recsOf(entries)
	}
	buf := encodeRecs(recs)
	if m.opt.Checksum {
		buf = appendSumTrailer(buf, idxSumMagic)
	}
	if err := ctx.writeFileAtomic(ctx.Vols[d.Vol], ipath, buf, m.opt.Retry, true); err != nil {
		return "", err
	}
	// A rebuilt index re-enters the replication contract immediately
	// (replace semantics: stale replicas of the torn original converge).
	m.replicateFile(ctx, ipath, buf, m.opt.Retry)
	return ipath, nil
}
