package plfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Data-dropping framing: at close, each writer appends a recovery footer
// to its data dropping — a self-describing copy of its index entries —
// so a lost or corrupt index dropping can be rebuilt from the data alone
// (Repair, the plfs_recover tool).  Layout, little-endian:
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

// extentOK is the bounds rule every integrity check applies to an index
// record, footer entry or index dropping alike: non-empty and wholly
// inside the dropping's data region [0, dataEnd), which ends where the
// recovery footer begins.
func extentOK(e Entry, dataEnd int64) bool {
	return e.Length > 0 && e.PhysOff >= 0 && e.PhysOff+e.Length <= dataEnd
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

// rebuildIndex replaces d's index dropping with one reconstructed from
// footer entries.  The replacement is
// committed atomically (temp + rename over the corrupt original), so a
// crash mid-rebuild leaves either the old index or the new one — never a
// torn rebuild — and the container stays recoverable from the footer.
func (m *Mount) rebuildIndex(ctx Ctx, d droppingRef, entries []Entry) error {
	ipath := indexPathFor(d)
	recs := compressRecs(entries)
	if m.opt.NoRunCompression {
		recs = recsOf(entries)
	}
	buf := encodeRecs(recs)
	if m.opt.Checksum {
		buf = appendSumTrailer(buf, idxSumMagic)
	}
	if err := ctx.writeFileAtomic(ctx.Vols[d.Vol], ipath, buf, m.opt.Retry, true); err != nil {
		return err
	}
	// A rebuilt index re-enters the replication contract immediately
	// (replace semantics: stale replicas of the torn original converge).
	m.replicateFile(ctx, ipath, buf, m.opt.Retry)
	return nil
}
