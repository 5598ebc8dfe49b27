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
		{Entry: Entry{LogicalOff: 0, Length: 64, PhysOff: 0, Timestamp: 1}},
		{Entry: Entry{LogicalOff: 1 << 10, Length: 64, PhysOff: 64, Timestamp: 2}, Count: 8, Stride: 512},
	}
}

func flipped(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i%len(out)] ^= 0x40
	return out
}

func FuzzDecodeIndexDropping(f *testing.F) {
	raw := encodeEntries(fuzzEntries())
	sum := appendSumTrailer(raw, idxSumMagic)
	v2 := encodeRecs(fuzzRecs())
	v2sum := appendSumTrailer(v2, idxSumMagic)
	f.Add([]byte{})
	f.Add(raw)
	f.Add(sum)
	f.Add(v2)
	f.Add(v2sum)
	f.Add(flipped(sum, 3))
	f.Add(flipped(v2, 11))
	f.Add(raw[:len(raw)-1])
	f.Add(sum[:len(sum)-8])
	f.Add(v2[:len(v2)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeIndexDropping(data, 7)
		if err != nil {
			return
		}
		// Every record costs at least EntryBytes on the wire in either
		// format generation, so this bounds allocation from forged counts.
		if len(recs)*EntryBytes > len(data) {
			t.Fatalf("%d records from %d bytes: over-allocated", len(recs), len(data))
		}
		for _, rec := range recs {
			if rec.Dropping != 7 {
				t.Fatalf("dropping id not rewritten: %d", rec.Dropping)
			}
		}
	})
}

func FuzzDecodeGlobalIndex(f *testing.F) {
	raw := encodeGlobalIndex([]string{"hostdir.0/dropping.data.1.0"}, fuzzEntries())
	sum := appendSumTrailer(raw, gidxSumMagic)
	v2 := encodeGlobalIndexV2([]string{"hostdir.0/dropping.data.1.0"}, fuzzRecs())
	v2sum := appendSumTrailer(v2, gidxSumMagic)
	// Regression: a forged entry count of 2^63 made ne*EntryBytes wrap to
	// 0, pass the length check, and panic in make.
	forged := make([]byte, 12)
	binary.LittleEndian.PutUint64(forged[4:], 1<<63)
	f.Add([]byte{})
	f.Add(raw)
	f.Add(sum)
	f.Add(v2)
	f.Add(v2sum)
	f.Add(forged)
	f.Add(flipped(sum, 9))
	f.Add(flipped(v2, 17))
	f.Add(raw[:len(raw)-5])
	f.Add(v2[:len(v2)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		paths, recs, err := decodeGlobalIndexAuto(data)
		if err != nil {
			return
		}
		if len(recs)*EntryBytes > len(data) || len(paths) > len(data) {
			t.Fatalf("%d records, %d paths from %d bytes: over-allocated",
				len(recs), len(paths), len(data))
		}
		// Successful decodes must round-trip bit-exactly: anything else
		// means the parser silently reinterpreted mangled input.  Re-encode
		// in whichever format generation the input was framed as.
		body, _, _ := splitSumTrailer(data, gidxSumMagic)
		var re []byte
		if len(body) >= 8 && binary.LittleEndian.Uint64(body) == gidxV2Magic {
			re = encodeGlobalIndexV2(paths, recs)
		} else {
			re = encodeGlobalIndex(paths, expandRecs(recs))
		}
		if !bytes.Equal(re, body) {
			t.Fatal("decode/encode round trip changed the global index")
		}
	})
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

func FuzzFrameFooter(f *testing.F) {
	entries := fuzzEntries()
	body := make([]byte, 128) // the 128 data bytes the entries cover
	for i := range body {
		body[i] = byte(i)
	}
	v1 := append(append([]byte(nil), body...), encodeFrameFooter(entries)...)
	v2 := append(append([]byte(nil), body...),
		encodeFrameFooterSums(entries, []uint32{0xdead, 0xbeef})...)
	f.Add([]byte{})
	f.Add(body)
	f.Add(v1)
	f.Add(v2)
	f.Add(v1[:len(v1)-3])
	f.Add(v2[:len(v2)-9])
	f.Add(flipped(v2, len(v2)-5))
	f.Add(flipped(v2, len(body)+2))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, sums, dataEnd, err := fuzzFooterRead(data)
		if err != nil {
			return
		}
		if len(entries)*EntryBytes > len(data) {
			t.Fatalf("%d entries from %d bytes: over-allocated", len(entries), len(data))
		}
		if sums != nil && len(sums) != len(entries) {
			t.Fatalf("%d sums for %d entries", len(sums), len(entries))
		}
		if dataEnd < 0 || dataEnd > int64(len(data)) {
			t.Fatalf("dataEnd %d outside [0,%d]", dataEnd, len(data))
		}
		for _, e := range entries {
			if e.Length <= 0 || e.PhysOff < 0 || e.PhysOff+e.Length > dataEnd {
				t.Fatalf("accepted extent [%d,%d) outside %d data bytes",
					e.PhysOff, e.PhysOff+e.Length, dataEnd)
			}
		}
	})
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
	entries := fuzzEntries()
	body := make([]byte, 128)
	foot := encodeFrameFooterSums(entries, []uint32{1, 2})
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
// checksummed index droppings: every single-byte flip must error.
func TestEveryIndexTrailerBitFlipRejected(t *testing.T) {
	file := appendSumTrailer(encodeEntries(fuzzEntries()), idxSumMagic)
	for i := range file {
		mangled := append([]byte(nil), file...)
		mangled[i] ^= 0x10
		if _, err := decodeIndexDropping(mangled, 0); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
}
