package plfs

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// singles32 is a 32-entry all-singles list: 1 KiB writes at permuted
// logical offsets, physically appended, so no two form a run.  Dropping
// ids cycle through drops.
func singles32(drops int32) []Rec {
	out := make([]Rec, 32)
	for i := range out {
		out[i] = Rec{Entry: Entry{
			LogicalOff: int64(i*7%32) << 10, Length: 1 << 10, PhysOff: int64(i) << 10,
			Timestamp: int64(i + 1), Dropping: int32(i) % drops, Rank: 3,
		}, Count: 1}
	}
	return out
}

// entriesOf drops the run fields of an all-singles list.
func entriesOf(recs []Rec) []Entry {
	out := make([]Entry, len(recs))
	for i, r := range recs {
		out[i] = r.Entry
	}
	return out
}

// frameFixture is one file under testdata/frames: a frame of every
// layout the encoders have written, with the records it holds.
type frameFixture struct {
	file string
	f    frame
}

func frameFixtures() []frameFixture {
	one := []string{"hostdir.0/dropping.data.1.0"}
	four := []string{"hostdir.0/dropping.data.1.0", "hostdir.0/dropping.data.1.1",
		"hostdir.1/dropping.data.1.2", "hostdir.1/dropping.data.1.3"}
	ents := fuzzEntries()
	return []frameFixture{
		{"index.v1", frame{kind: frameIndex, recs: singles32(1)}},
		{"index.v1.icx", frame{kind: frameIndex, crc: true, recs: recsOf(ents)}},
		{"index.v2", frame{kind: frameIndex, v2: true, recs: fuzzRecs()}},
		{"index.v2.icx", frame{kind: frameIndex, v2: true, crc: true, recs: fuzzRecs()}},
		{"global.v1", frame{kind: frameGlobal, paths: four, recs: singles32(4)}},
		{"global.v1.gcx", frame{kind: frameGlobal, crc: true, paths: one, recs: []Rec{}}},
		{"global.v2", frame{kind: frameGlobal, v2: true, paths: one, recs: fuzzRecs()}},
		{"global.v2.gcx", frame{kind: frameGlobal, v2: true, crc: true, paths: one, recs: fuzzRecs()}},
		{"footer.rec", frame{kind: frameFooter, ents: entriesOf(singles32(1))}},
		{"footer.rc2", frame{kind: frameFooter, crc: true, ents: ents, sums: []uint32{0xdead, 0xbeef}}},
	}
}

// sameFrame compares frames field by field (a nil list equals an empty one).
func sameFrame(a, b frame) bool {
	return a.kind == b.kind && a.v2 == b.v2 && a.crc == b.crc && slices.Equal(a.paths, b.paths) &&
		slices.Equal(a.recs, b.recs) && slices.Equal(a.ents, b.ents) && slices.Equal(a.sums, b.sums)
}

// TestFrameFixtures pins the index bytes: every checked-in frame decodes
// to the records its row lists and re-encodes to the same bytes, also
// when the encoder picks the generation itself, as every writer lets it.
func TestFrameFixtures(t *testing.T) {
	for _, fx := range frameFixtures() {
		t.Run(fx.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "frames", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			f, err := decodeFrame(fx.f.kind, data)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFrame(f, fx.f) {
				t.Fatalf("decoded %+v\nwant %+v", f, fx.f)
			}
			if re := appendFrame(nil, f); !bytes.Equal(re, data) {
				t.Fatalf("re-encoded %d bytes differ from the %d on file", len(re), len(data))
			}
			f.v2 = false
			if re := appendFrame(nil, f); !bytes.Equal(re, data) {
				t.Fatalf("encoded without asking for v2: %d bytes differ from the %d on file", len(re), len(data))
			}
		})
	}
}

// randFrame is a random well-formed frame: any kind, with and without a
// CRC, runs, paths and sums where the kind has them.
type randFrame struct{ f frame }

func (randFrame) Generate(r *rand.Rand, size int) reflect.Value {
	ent := func() Entry {
		return Entry{LogicalOff: r.Int63() - r.Int63(), Length: r.Int63() - r.Int63(), PhysOff: r.Int63(),
			Timestamp: r.Int63(), Dropping: r.Int31() - r.Int31(), Rank: r.Int31()}
	}
	f := frame{kind: frameKind(r.Intn(3)), crc: r.Intn(2) == 0}
	n := r.Intn(size + 1)
	if f.kind == frameFooter {
		f.ents = make([]Entry, n)
		for i := range f.ents {
			f.ents[i] = ent()
		}
		if f.crc {
			f.sums = make([]uint32, n)
			for i := range f.sums {
				f.sums[i] = r.Uint32()
			}
		}
		return reflect.ValueOf(randFrame{f})
	}
	f.recs = make([]Rec, n)
	for i := range f.recs {
		f.recs[i] = Rec{Entry: ent(), Count: 1}
		if r.Intn(3) == 0 {
			run := &f.recs[i]
			run.LogicalOff, run.Length = r.Int63n(1<<40), r.Int63n(1<<20)
			run.Count, run.Stride = 2+r.Int31n(1000), run.Length+r.Int63n(1<<20)
		}
	}
	f.v2 = r.Intn(2) == 0 || f.tagged()
	if f.kind == frameGlobal {
		for k := r.Intn(4); k > 0; k-- {
			p := make([]byte, r.Intn(40))
			r.Read(p)
			f.paths = append(f.paths, string(p))
		}
	}
	return reflect.ValueOf(randFrame{f})
}

// TestFrameRoundTrip: decodeFrame(appendFrame(f)) == f, and frameLen is
// the encoding's exact length, the one allocation appendFrame makes.
func TestFrameRoundTrip(t *testing.T) {
	prop := func(rf randFrame) bool {
		buf := appendFrame(nil, rf.f)
		if len(buf) != frameLen(&rf.f) || len(buf) != cap(buf) {
			t.Logf("%d bytes in room for %d, frameLen %d", len(buf), cap(buf), frameLen(&rf.f))
			return false
		}
		got, err := decodeFrame(rf.f.kind, buf)
		if err != nil {
			t.Log(err)
			return false
		}
		return sameFrame(got, rf.f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRecsWireLen pins the bytes the simulator charges for a shard to the
// bytes its index dropping takes.
func TestRecsWireLen(t *testing.T) {
	prop := func(rf randFrame) bool {
		return recsWireLen(rf.f.recs) == int64(len(appendFrame(nil, frame{kind: frameIndex, recs: rf.f.recs})))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
