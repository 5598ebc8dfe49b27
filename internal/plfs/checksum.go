package plfs

// Checksummed framing (Options.Checksum).  When enabled, every piece of
// index metadata the reader trusts — per-rank index droppings, the
// flattened global index, and the recovery footer — ends in a CRC32C
// (Castagnoli) trailer, and the footer also carries one CRC32C per data
// extent so Scrub and Options.VerifyData can detect silently corrupted
// data, not just torn metadata.  The layouts are the index frame's.
//
// A reader takes a frame's last 8 bytes for a trailer when they are its
// magic.  No unchecksummed index dropping or global index ends in one:
// its last 8 bytes are a record's (Dropping, Rank), which would need rank
// 1,347,175,507; a run's stride, which the decoder caps at 2^61, below
// every magic; or an empty list's zero count.  (Length tells them apart
// only for a v1 index dropping, a multiple of EntryBytes.)  So checksummed
// and legacy files read alike: Options.Checksum only picks what is
// written, and a trailer, when present, is always verified.

import (
	"fmt"
	"hash/crc32"

	"plfs/internal/payload"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadCRC extends sum with the payload's content.  Synthetic and zero
// payloads are streamed through a small pattern buffer rather than
// materialized, so the writer-side cost is CPU only and the resulting
// CRC matches what a reader computes from the stored bytes, whether the
// backend materializes them (osfs) or replays the algebra (simfs).
func payloadCRC(sum uint32, p payload.Payload) uint32 {
	if p.Bytes != nil {
		return crc32.Update(sum, castagnoli, p.Bytes)
	}
	const chunk = 32 << 10
	n := p.Len()
	buf := make([]byte, min64(chunk, n))
	for off := int64(0); off < n; {
		m := min64(chunk, n-off)
		b := buf[:m]
		if p.Tag == 0 {
			for i := range b {
				b[i] = 0
			}
		} else {
			for i := range b {
				b[i] = payload.PatternByte(p.Tag, p.Phase+off+int64(i))
			}
		}
		sum = crc32.Update(sum, castagnoli, b)
		off += m
	}
	return sum
}

// listCRC extends sum with every payload in the list, in order.
func listCRC(sum uint32, pl payload.List) uint32 {
	for _, p := range pl {
		sum = payloadCRC(sum, p)
	}
	return sum
}

// extentSums caches one dropping's per-extent data checksums for
// Options.VerifyData, with a verified bit per extent so each extent is
// read and hashed at most once per reader.
type extentSums struct {
	entries  []Entry
	sums     []uint32
	verified []bool
}

// loadSums lazily reads the checksummed recovery footer of dropping id.
// Droppings without one (legacy, unframed, or unchecksummed) get no
// extents and are served unverified.
func (r *Reader) loadSums(id int32) *extentSums {
	if es, ok := r.vsums[id]; ok {
		return es
	}
	if r.vsums == nil {
		r.vsums = map[int32]*extentSums{}
	}
	p := r.ix.Droppings()[id]
	ref := droppingRef{Data: p, Vol: r.m.volOfPath(p)}
	entries, sums, _, err := r.m.readFrameFooter(r.ctx, ref)
	es := &extentSums{}
	if err == nil && sums != nil {
		es.entries, es.sums, es.verified = entries, sums, make([]bool, len(entries))
	}
	r.vsums[id] = es
	return es
}

// verifyPiece checks every footer extent overlapping the piece's
// physical range against its recorded CRC32C, reading the extent's
// stored bytes.  Extents are verified whole (the CRC covers the full
// extent) and at most once per reader.
func (r *Reader) verifyPiece(piece Piece) error {
	es := r.loadSums(piece.Dropping)
	lo, hi := piece.PhysOff, piece.PhysOff+piece.Length
	for i, e := range es.entries {
		if e.PhysOff+e.Length <= lo || e.PhysOff >= hi || es.verified[i] {
			continue
		}
		pl, err := r.readExtent(piece.Dropping, e.PhysOff, e.Length)
		if err != nil {
			return err
		}
		if got := listCRC(0, pl); got != es.sums[i] {
			return fmt.Errorf("plfs: data checksum mismatch: %s extent [%d,%d) (crc32c %08x, footer says %08x)",
				r.ix.Droppings()[piece.Dropping], e.PhysOff, e.PhysOff+e.Length, got, es.sums[i])
		}
		es.verified[i] = true
	}
	return nil
}
