package payload

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPatternByteDeterministic(t *testing.T) {
	if PatternByte(7, 100) != PatternByte(7, 100) {
		t.Fatal("pattern not deterministic")
	}
	// Different tags and positions should (almost always) differ; check a
	// couple of fixed pairs to catch degenerate mixing.
	if PatternByte(1, 0) == PatternByte(2, 0) && PatternByte(1, 1) == PatternByte(2, 1) &&
		PatternByte(1, 2) == PatternByte(2, 2) && PatternByte(1, 3) == PatternByte(2, 3) {
		t.Fatal("pattern ignores tag")
	}
}

func TestSyntheticSliceMatchesMaterialize(t *testing.T) {
	p := Synthetic(42, 100, 1000)
	whole := p.Materialize()
	sl := p.Slice(250, 300)
	if !bytes.Equal(sl.Materialize(), whole[250:550]) {
		t.Fatal("synthetic slice does not match materialized slice")
	}
}

func TestMaterializedPayload(t *testing.T) {
	b := []byte("hello, world")
	p := FromBytes(b)
	if p.Len() != int64(len(b)) {
		t.Fatalf("len = %d", p.Len())
	}
	if p.At(4) != 'o' {
		t.Fatalf("At(4) = %c", p.At(4))
	}
	if !bytes.Equal(p.Slice(7, 5).Materialize(), []byte("world")) {
		t.Fatal("slice wrong")
	}
}

func TestZerosPayload(t *testing.T) {
	z := Zeros(16)
	if !z.IsZeros() {
		t.Fatal("not zeros")
	}
	for _, b := range z.Materialize() {
		if b != 0 {
			t.Fatal("nonzero byte in hole")
		}
	}
}

func TestListAppendCoalesces(t *testing.T) {
	var l List
	l = l.Append(Synthetic(9, 0, 100))
	l = l.Append(Synthetic(9, 100, 50)) // contiguous phase: coalesce
	if len(l) != 1 || l[0].Length != 150 {
		t.Fatalf("coalesce failed: %+v", l)
	}
	l = l.Append(Synthetic(9, 500, 10)) // phase gap: no coalesce
	if len(l) != 2 {
		t.Fatalf("unexpected coalesce: %+v", l)
	}
	l = l.Append(Zeros(5))
	l = l.Append(Zeros(7)) // holes merge
	if len(l) != 3 || l[2].Length != 12 {
		t.Fatalf("hole merge failed: %+v", l)
	}
}

func TestListSliceAndAt(t *testing.T) {
	var l List
	l = l.Append(FromBytes([]byte{1, 2, 3}))
	l = l.Append(Synthetic(5, 0, 4))
	l = l.Append(Zeros(3))
	whole := l.Materialize()
	if l.Len() != 10 {
		t.Fatalf("len = %d", l.Len())
	}
	for off := int64(0); off <= 10; off++ {
		for n := int64(0); off+n <= 10; n++ {
			got := l.Slice(off, n).Materialize()
			if !bytes.Equal(got, whole[off:off+n]) {
				t.Fatalf("slice [%d,%d) mismatch", off, off+n)
			}
		}
	}
	for i := int64(0); i < 10; i++ {
		if l.At(i) != whole[i] {
			t.Fatalf("At(%d) mismatch", i)
		}
	}
}

func TestContentEqual(t *testing.T) {
	a := List{Synthetic(3, 0, 10)}
	b := List{Synthetic(3, 0, 4), Synthetic(3, 4, 6)}
	if !ContentEqual(a, b) {
		t.Fatal("split synthetic streams must be equal")
	}
	c := List{FromBytes(a.Materialize())}
	if !ContentEqual(a, c) {
		t.Fatal("materialized copy must be equal")
	}
	d := List{Synthetic(4, 0, 10)}
	if ContentEqual(a, d) {
		t.Fatal("different tags compared equal")
	}
	if ContentEqual(a, List{Synthetic(3, 0, 9)}) {
		t.Fatal("different lengths compared equal")
	}
}

// TestContentEqualChunkKinds walks every pairing of chunk kinds through
// chunkEqual's three routes (same synthetic stream, bytes against bytes,
// the mixed per-byte walk), with piece boundaries that do not line up.
func TestContentEqualChunkKinds(t *testing.T) {
	syn := Synthetic(9, 5, 64)
	raw := syn.Materialize()
	flipped := append([]byte(nil), raw...)
	flipped[63] ^= 1
	zeros := make([]byte, 64)
	cases := []struct {
		name string
		a, b List
		want bool
	}{
		{"bytes/bytes equal", List{FromBytes(raw)}, List{FromBytes(append([]byte(nil), raw...))}, true},
		{"bytes/bytes unaligned pieces", List{FromBytes(raw[:10]), FromBytes(raw[10:])}, List{FromBytes(raw[:33]), FromBytes(raw[33:])}, true},
		{"bytes/bytes last byte differs", List{FromBytes(raw)}, List{FromBytes(flipped)}, false},
		{"bytes/bytes differs in second piece", List{FromBytes(raw)}, List{FromBytes(flipped[:40]), FromBytes(flipped[40:])}, false},
		{"bytes/synthetic equal", List{FromBytes(raw)}, List{syn}, true},
		{"synthetic/bytes differs", List{syn}, List{FromBytes(flipped)}, false},
		{"bytes/zeros equal", List{FromBytes(zeros)}, List{Zeros(64)}, true},
		{"bytes/zeros differs", List{FromBytes(raw)}, List{Zeros(64)}, false},
		{"synthetic split/bytes split", List{syn.Slice(0, 7), syn.Slice(7, 57)}, List{FromBytes(raw[:50]), FromBytes(raw[50:])}, true},
		{"empty/empty", nil, List{}, true},
	}
	for _, c := range cases {
		if got := ContentEqual(c.a, c.b); got != c.want {
			t.Errorf("%s: ContentEqual = %v, want %v", c.name, got, c.want)
		}
		if got := ContentEqual(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): ContentEqual = %v, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkContentEqual compares two 1 MiB lists of 64 KiB pieces: byte
// payloads on both sides (the read-back check of a real-path test) and
// bytes against the synthetic stream they came from (the per-byte walk).
func BenchmarkContentEqual(b *testing.B) {
	const piece, pieces = 64 << 10, 16
	var syn, raw, raw2 List
	for i := int64(0); i < pieces; i++ {
		p := Synthetic(3, i*piece, piece)
		syn = append(syn, p)
		raw = append(raw, FromBytes(p.Materialize()))
		raw2 = append(raw2, FromBytes(p.Materialize()))
	}
	for _, bc := range []struct {
		name string
		a, b List
	}{{"bytes-bytes", raw, raw2}, {"bytes-synthetic", raw, syn}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(piece * pieces)
			for i := 0; i < b.N; i++ {
				if !ContentEqual(bc.a, bc.b) {
					b.Fatal("lists differ")
				}
			}
		})
	}
}

func TestResolveLastWriterWins(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 10, Seq: 1, Ref: 0},
		{Start: 5, End: 15, Seq: 2, Ref: 1},
		{Start: 8, End: 9, Seq: 3, Ref: 2},
	}
	res := Resolve(spans)
	// Expect: [0,5)->0, [5,8)->1, [8,9)->2, [9,15)->1
	want := []Span{
		{0, 5, 1, 0}, {5, 8, 2, 1}, {8, 9, 3, 2}, {9, 15, 2, 1},
	}
	if len(res) != len(want) {
		t.Fatalf("res = %+v", res)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res[%d] = %+v, want %+v", i, res[i], want[i])
		}
	}
}

func TestResolveEmptyAndDegenerate(t *testing.T) {
	if Resolve(nil) != nil {
		t.Fatal("nil input must resolve to nil")
	}
	if got := Resolve([]Span{{Start: 5, End: 5, Seq: 1}}); got != nil {
		t.Fatalf("empty span must vanish: %+v", got)
	}
}

// Property: Resolve produces a disjoint sorted cover of the union, and at
// every byte the winner has the max Seq among covering spans.
func TestResolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		spans := make([]Span, n)
		for i := range spans {
			start := int64(rng.Intn(200))
			spans[i] = Span{Start: start, End: start + int64(rng.Intn(50)), Seq: uint64(i + 1), Ref: int32(i)}
		}
		res := Resolve(spans)
		// Disjoint & sorted.
		for i := 1; i < len(res); i++ {
			if res[i].Start < res[i-1].End {
				return false
			}
		}
		// Oracle: byte map.
		var oracle [300]uint64
		for _, s := range spans {
			for b := s.Start; b < s.End; b++ {
				if s.Seq > oracle[b] {
					oracle[b] = s.Seq
				}
			}
		}
		var got [300]uint64
		for _, s := range res {
			for b := s.Start; b < s.End; b++ {
				got[b] = s.Seq
			}
		}
		return oracle == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFileWriteReadRoundtrip(t *testing.T) {
	var f File
	f.WriteAt(0, FromBytes([]byte("aaaaaaaaaa")))
	f.WriteAt(5, FromBytes([]byte("BBB")))
	got := f.ReadAt(0, 10).Materialize()
	if string(got) != "aaaaaBBBaa" {
		t.Fatalf("got %q", got)
	}
	if f.Size() != 10 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestFileHolesReadAsZeros(t *testing.T) {
	var f File
	f.WriteAt(10, FromBytes([]byte("xy")))
	got := f.ReadAt(0, 14).Materialize()
	want := append(make([]byte, 10), 'x', 'y', 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFileAppend(t *testing.T) {
	var f File
	if off := f.Append(FromBytes([]byte("abc"))); off != 0 {
		t.Fatalf("first append off = %d", off)
	}
	if off := f.Append(FromBytes([]byte("de"))); off != 3 {
		t.Fatalf("second append off = %d", off)
	}
	if string(f.ReadAt(0, 5).Materialize()) != "abcde" {
		t.Fatal("append contents wrong")
	}
}

func TestFileTruncate(t *testing.T) {
	var f File
	f.WriteAt(0, FromBytes([]byte("0123456789")))
	f.Truncate(4)
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	if string(f.ReadAt(0, 4).Materialize()) != "0123" {
		t.Fatal("truncate contents wrong")
	}
	f.Truncate(0)
	if f.Size() != 0 || f.Extents() != 0 {
		t.Fatal("truncate to zero failed")
	}
}

// Property: File matches a brute-force byte-array oracle under random
// overlapping writes interleaved with reads.
func TestFileMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var file File
		oracle := make([]byte, 0, 512)
		ops := 1 + rng.Intn(60)
		for k := 0; k < ops; k++ {
			if rng.Intn(3) > 0 { // write
				off := int64(rng.Intn(400))
				n := 1 + rng.Intn(60)
				data := make([]byte, n)
				rng.Read(data)
				file.WriteAt(off, FromBytes(data))
				if need := int(off) + n; need > len(oracle) {
					oracle = append(oracle, make([]byte, need-len(oracle))...)
				}
				copy(oracle[off:], data)
			} else { // read
				if file.Size() != int64(len(oracle)) {
					return false
				}
				off := int64(rng.Intn(480))
				n := int64(rng.Intn(80))
				got := file.ReadAt(off, n).Materialize()
				want := make([]byte, n)
				for i := int64(0); i < n; i++ {
					if idx := off + i; idx < int64(len(oracle)) {
						want[i] = oracle[idx]
					}
				}
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a File written with synthetic payloads returns extents whose
// contents verify against the pattern function — the mechanism the
// large-scale benchmarks use to validate reads without materializing data.
func TestFileSyntheticVerification(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var file File
		type w struct {
			off, n int64
			tag    uint64
		}
		var writes []w
		for k := 0; k < 30; k++ {
			wr := w{off: int64(rng.Intn(1000)), n: 1 + int64(rng.Intn(100)), tag: uint64(k + 1)}
			writes = append(writes, wr)
			// Phase convention: pattern position == logical offset.
			file.WriteAt(wr.off, Synthetic(wr.tag, wr.off, wr.n))
		}
		// Read everything back; every byte must match the *last* writer's
		// pattern at that absolute position.
		last := make(map[int64]uint64)
		for _, wr := range writes {
			for b := wr.off; b < wr.off+wr.n; b++ {
				last[b] = wr.tag
			}
		}
		got := file.ReadAt(0, file.Size())
		var pos int64
		for _, p := range got {
			for i := int64(0); i < p.Length; i++ {
				tag, written := last[pos]
				want := byte(0)
				if written {
					want = PatternByte(tag, pos)
				}
				if p.At(i) != want {
					return false
				}
				pos++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFileExtentsCoalesce(t *testing.T) {
	var f File
	for i := int64(0); i < 100; i++ {
		f.WriteAt(i*10, Synthetic(1, i*10, 10))
	}
	if got := f.Extents(); got != 1 {
		t.Fatalf("contiguous same-tag writes produced %d extents, want 1", got)
	}
}
