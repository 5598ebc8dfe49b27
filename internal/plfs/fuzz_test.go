package plfs

// Fuzz targets for every parser that consumes bytes a crash or bit rot
// may have mangled: index droppings, the global index, the recovery
// footer, and the names in a container listing that carry numbers
// (forwarding entries and size records).  The contract under arbitrary
// input is: return an error —
// never panic, never allocate proportionally to a forged count field,
// never silently yield entries that disagree with the input.  Seeds are
// exercised by plain `go test` too, so the corpus doubles as a
// regression suite.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	iofs "io/fs"
	"strings"
	"testing"

	"plfs/internal/extent"
	"plfs/internal/payload"
)

// memFS is a tiny in-memory Backend so footer parsing can be fuzzed
// without touching disk (and without importing osfs, which would cycle).
type memFS struct{ files map[string][]byte }

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) Mkdir(string) error { return nil }

func (m *memFS) Create(p string) (File, error) {
	m.files[p] = nil
	return &memFile{fs: m, p: p}, nil
}

func (m *memFS) OpenRead(p string) (File, error) {
	if _, ok := m.files[p]; !ok {
		return nil, iofs.ErrNotExist
	}
	return &memFile{fs: m, p: p}, nil
}

func (m *memFS) OpenWrite(p string) (File, error) { return m.Create(p) }

func (m *memFS) Stat(p string) (Info, error) {
	b, ok := m.files[p]
	if !ok {
		return Info{}, iofs.ErrNotExist
	}
	return Info{Name: p, Size: int64(len(b))}, nil
}

func (m *memFS) ReadDir(string) ([]Info, error) { return nil, nil }

func (m *memFS) Remove(p string) error {
	delete(m.files, p)
	return nil
}

func (m *memFS) Rename(a, b string) error {
	m.files[b] = m.files[a]
	delete(m.files, a)
	return nil
}

type memFile struct {
	fs *memFS
	p  string
}

func (f *memFile) WriteAt(off int64, pl payload.Payload) error {
	b := f.fs.files[f.p]
	end := off + pl.Len()
	for int64(len(b)) < end {
		b = append(b, 0)
	}
	copy(b[off:end], pl.Materialize())
	f.fs.files[f.p] = b
	return nil
}

func (f *memFile) Append(pl payload.Payload) (int64, error) {
	off := int64(len(f.fs.files[f.p]))
	f.fs.files[f.p] = append(f.fs.files[f.p], pl.Materialize()...)
	return off, nil
}

func (f *memFile) ReadAt(off, n int64) (payload.List, error) {
	b := f.fs.files[f.p]
	if off < 0 || off+n > int64(len(b)) {
		return nil, iofs.ErrNotExist
	}
	out := make([]byte, n)
	copy(out, b[off:off+n])
	return payload.List{payload.FromBytes(out)}, nil
}

func (f *memFile) Size() int64  { return int64(len(f.fs.files[f.p])) }
func (f *memFile) Close() error { return nil }

// The list-I/O part of File, as plain loops over the calls above.
func (f *memFile) WritevAt(segs []extent.Ext, data payload.List) error {
	pos := int64(0)
	for _, s := range segs {
		f.WriteAt(s.Off, payload.FromBytes(data.Slice(pos, s.Len).Materialize()))
		pos += s.Len
	}
	return nil
}

func (f *memFile) ReadvAt(segs []extent.Ext) (payload.List, error) {
	var out payload.List
	for _, s := range segs {
		pl, err := f.ReadAt(s.Off, s.Len)
		if err != nil {
			return nil, err
		}
		out = out.Concat(pl)
	}
	return out, nil
}

func (f *memFile) Appendv(pl payload.List) (int64, error) {
	return f.Append(payload.FromBytes(pl.Materialize()))
}

// fuzzEntries is a small well-formed entry set shared by the seeds.
func fuzzEntries() []Entry {
	return []Entry{
		{LogicalOff: 0, Length: 64, PhysOff: 0, Timestamp: 1, Dropping: 0, Rank: 0},
		{LogicalOff: 128, Length: 64, PhysOff: 64, Timestamp: 2, Dropping: 0, Rank: 1},
	}
}

// fuzzRecs is a mixed record set — a plain entry plus a strided run — so
// the seeds exercise the v2 run-record framing.
func fuzzRecs() []Rec {
	return []Rec{
		{Entry: Entry{LogicalOff: 0, Length: 64, PhysOff: 0, Timestamp: 1}, Count: 1},
		{Entry: Entry{LogicalOff: 1 << 10, Length: 64, PhysOff: 64, Timestamp: 2}, Count: 8, Stride: 512},
	}
}

func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i%len(out)] ^= 0x40
	return out
}

// The three index artefacts are three kinds of one frame, parsed by one
// decoder; each kind keeps its own fuzz target and corpus, and all three
// hold decodeFrame to one property, checkFrame.

func FuzzDecodeIndexDropping(f *testing.F) {
	ents, recs := fuzzEntries(), fuzzRecs()
	raw := appendFrame(nil, frame{kind: frameIndex, recs: recsOf(ents)})
	sum := appendFrame(nil, frame{kind: frameIndex, crc: true, recs: recsOf(ents)})
	v2 := appendFrame(nil, frame{kind: frameIndex, recs: recs})
	v2sum := appendFrame(nil, frame{kind: frameIndex, crc: true, recs: recs})
	for _, s := range [][]byte{{}, raw, sum, v2, v2sum, flipped(sum, 3), flipped(v2, 11),
		raw[:len(raw)-1], sum[:len(sum)-8], v2[:len(v2)-2]} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, frameIndex, data) })
}

func FuzzDecodeGlobalIndex(f *testing.F) {
	ents, recs := fuzzEntries(), fuzzRecs()
	paths := []string{"hostdir.0/dropping.data.1.0"}
	raw := appendFrame(nil, frame{kind: frameGlobal, paths: paths, recs: recsOf(ents)})
	sum := appendFrame(nil, frame{kind: frameGlobal, crc: true, paths: paths, recs: recsOf(ents)})
	v2 := appendFrame(nil, frame{kind: frameGlobal, paths: paths, recs: recs})
	v2sum := appendFrame(nil, frame{kind: frameGlobal, crc: true, paths: paths, recs: recs})
	// Regression: a forged entry count of 2^63 made ne*EntryBytes wrap to
	// 0, pass the length check, and panic in make.
	forged := make([]byte, 12)
	binary.LittleEndian.PutUint64(forged[4:], 1<<63)
	for _, s := range [][]byte{{}, raw, sum, v2, v2sum, forged, flipped(sum, 9), flipped(v2, 17),
		raw[:len(raw)-5], v2[:len(v2)-7]} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, frameGlobal, data) })
}

// FuzzFrameFooter feeds whole data droppings: the footer reader must
// hold to its contract on them, and the bytes also go to decodeFrame as
// a bare footer frame.
func FuzzFrameFooter(f *testing.F) {
	ents := fuzzEntries()
	body := make([]byte, 128) // the 128 data bytes the entries cover
	for i := range body {
		body[i] = byte(i)
	}
	foot := appendFrame(nil, frame{kind: frameFooter, ents: ents})
	footSum := appendFrame(nil, frame{kind: frameFooter, crc: true, ents: ents, sums: []uint32{0xdead, 0xbeef}})
	v1 := append(append([]byte(nil), body...), foot...)
	v2 := append(append([]byte(nil), body...), footSum...)
	for _, s := range [][]byte{{}, body, v1, v2, v1[:len(v1)-3], v2[:len(v2)-9],
		flipped(v2, len(v2)-5), flipped(v2, len(body)+2), foot, footSum} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFooterRead(t, data)
		checkFrame(t, frameFooter, data)
	})
}

// checkFrame: bytes of a kind of index frame either decode or error —
// never a panic, never more records than the bytes can hold — and a
// decoded frame re-encodes to exactly its input, in the generation the
// input was framed as.
func checkFrame(t *testing.T, kind frameKind, data []byte) {
	fr, err := decodeFrame(kind, data)
	if err != nil {
		return
	}
	if (len(fr.recs)+len(fr.ents))*EntryBytes > len(data) || len(fr.paths) > len(data) {
		t.Fatalf("%d records, %d entries, %d paths from %d bytes: over-allocated",
			len(fr.recs), len(fr.ents), len(fr.paths), len(data))
	}
	if !bytes.Equal(appendFrame(nil, fr), data) {
		t.Fatal("decode/encode round trip changed the frame")
	}
}

// fuzzFooterRead parses data as a data-dropping file through the real
// footer reader.
func fuzzFooterRead(data []byte) ([]Entry, []uint32, int64, error) {
	fs := newMemFS()
	fs.files["d"] = data
	m := NewMount([]string{"/"}, Options{})
	ctx := Ctx{Vols: []Backend{fs}}
	return m.readFrameFooter(ctx, droppingRef{Data: "d", Vol: 0})
}

// checkFooterRead holds the footer reader to its contract on data as a
// whole data dropping: what it accepts lies inside the data region, and
// the region's end is where a footer frame starts.
func checkFooterRead(t *testing.T, data []byte) {
	entries, sums, dataEnd, err := fuzzFooterRead(data)
	if err != nil {
		return
	}
	if dataEnd < 0 || dataEnd > int64(len(data)) {
		t.Fatalf("dataEnd %d outside [0,%d]", dataEnd, len(data))
	}
	if sums != nil && len(sums) != len(entries) {
		t.Fatalf("%d sums for %d entries", len(sums), len(entries))
	}
	for _, e := range entries {
		if !extentOK(e, dataEnd) {
			t.Fatalf("accepted extent [%d,%d) outside %d data bytes", e.PhysOff, e.PhysOff+e.Length, dataEnd)
		}
	}
	if fr, err := decodeFrame(frameFooter, data[dataEnd:]); err != nil || len(fr.ents) != len(entries) {
		t.Fatalf("the footer read gave %d entries; its frame decodes to %d (err %v)", len(entries), len(fr.ents), err)
	}
}

// FuzzParseMovedMarker: a name from a container listing parses as a
// forwarding entry only if movedMarkerName renders it back unchanged, so
// a mangled or foreign name can never redirect a hostdir.
func FuzzParseMovedMarker(f *testing.F) {
	if id, seq, vol, ok := parseMovedMarker(movedMarkerName(1, 2, 3)); !ok || id != 1 || seq != 2 || vol != 3 {
		f.Fatalf("canonical marker parsed as (%d, %d, %d, %v)", id, seq, vol, ok)
	}
	for _, s := range []string{
		"hostdir.1.moved.2.v3",
		"hostdir.01.moved.2.v3",
		"hostdir.+1.moved.2.v3",
		"hostdir.1.moved.-2.v3",
		"hostdir.1.moved.2.v3.v4",
		"hostdir.1",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		id, seq, vol, ok := parseMovedMarker(name)
		if ok && movedMarkerName(id, seq, vol) != name {
			t.Fatalf("%q parsed as hostdir %d seq %d vol %d, which renders as %q",
				name, id, seq, vol, movedMarkerName(id, seq, vol))
		}
	})
}

// FuzzParseSizeRecord is the same property for metadir size records, in
// the current sz.<size>.<gen>.<rank> form and the legacy two-part
// sz.<size>.<rank> form (generation 0).
func FuzzParseSizeRecord(f *testing.F) {
	if size, gen, rank, ok := parseSizeRecord(sizeRecordName(5, 2, 7)); !ok || size != 5 || gen != 2 || rank != 7 {
		f.Fatalf("canonical size record parsed as (%d, %d, %d, %v)", size, gen, rank, ok)
	}
	if size, gen, rank, ok := parseSizeRecord("sz.5.7"); !ok || size != 5 || gen != 0 || rank != 7 {
		f.Fatalf("legacy size record parsed as (%d, %d, %d, %v)", size, gen, rank, ok)
	}
	for _, s := range []string{
		"sz.5.0.1",
		"sz.5.1",
		"sz.007.0.1",
		"sz.5.0.x",
		"sz.5.-2.0",
		"sz.5.0.1.2",
		"sz.",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		size, gen, rank, ok := parseSizeRecord(name)
		if !ok {
			return
		}
		re := sizeRecordName(size, gen, rank)
		if strings.Count(name, ".") == 2 { // legacy form
			re = fmt.Sprintf("%s%d.%d", sizePrefix, size, rank)
			if gen != 0 {
				t.Fatalf("legacy record %q parsed at generation %d", name, gen)
			}
		}
		if re != name {
			t.Fatalf("%q parsed as size %d gen %d rank %d, which renders as %q", name, size, gen, rank, re)
		}
	})
}

// TestEveryFooterBitFlipRejected proves the checksummed (v2) footer has
// no silently-accepted corruption: flipping any single byte of the
// footer region makes the parse fail (data-region flips are the data
// checksums' job, covered by the scrub tests).
func TestEveryFooterBitFlipRejected(t *testing.T) {
	body := make([]byte, 128)
	foot := appendFrame(nil, frame{kind: frameFooter, crc: true, ents: fuzzEntries(), sums: []uint32{1, 2}})
	file := append(append([]byte(nil), body...), foot...)
	for i := len(body); i < len(file); i++ {
		mangled := append([]byte(nil), file...)
		mangled[i] ^= 0x10
		if _, _, _, err := fuzzFooterRead(mangled); err == nil {
			t.Fatalf("flip at byte %d (footer offset %d) parsed cleanly", i, i-len(body))
		}
	}
}

// TestEveryIndexTrailerBitFlipRejected is the same property for
// checksummed index droppings, v1 and v2, and checksummed global
// indexes: every single-byte flip must error.
func TestEveryIndexTrailerBitFlipRejected(t *testing.T) {
	paths := []string{"hostdir.0/dropping.data.1.0"}
	for _, f := range []frame{
		{kind: frameIndex, crc: true, recs: recsOf(fuzzEntries())},
		{kind: frameIndex, crc: true, recs: fuzzRecs()},
		{kind: frameGlobal, crc: true, paths: paths, recs: recsOf(fuzzEntries())},
		{kind: frameGlobal, crc: true, paths: paths, recs: fuzzRecs()},
	} {
		file := appendFrame(nil, f)
		for i := range file {
			mangled := append([]byte(nil), file...)
			mangled[i] ^= 0x10
			if _, err := decodeFrame(f.kind, mangled); err == nil {
				t.Fatalf("%s with %d records: flip at byte %d decoded cleanly", frameKinds[f.kind].name, len(f.recs), i)
			}
		}
	}
}
