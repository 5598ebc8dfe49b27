package payload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: under seeded random WriteAt/Append/Truncate sequences with
// ReadAt at random points, a File returns the bytes and size of a plain
// byte-slice model, and its extent list equals that of a twin File whose
// every write is queued (never resolved on the spot).  The twin is built
// only by consolidate, so the equality shows that the append path builds
// the canonical list.
func TestFileMatchesByteModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var file, queued File
		var model []byte
		tags := 1 + rng.Intn(3) // few tags, so synthetic writes often continue each other
		// gen returns a payload of n bytes for offset off and its
		// contents.  A synthetic payload's phase is mostly off itself, so
		// back-to-back writes of one tag continue each other and coalesce
		// as a data dropping's appends do; else off-1, which breaks the run.
		gen := func(off, n int64) (Payload, []byte) {
			var p Payload
			switch rng.Intn(4) {
			case 0:
				b := make([]byte, n)
				rng.Read(b)
				p = FromBytes(b)
			case 1:
				p = Zeros(n)
			default:
				p = Synthetic(uint64(1+rng.Intn(tags)), off-int64(rng.Intn(4)/3), n)
			}
			return p, p.Materialize()
		}
		write := func(off int64, p Payload, b []byte) {
			file.WriteAt(off, p)
			if p.Length == 0 {
				return // a no-op: it neither writes nor extends
			}
			queued.queue(off, p)
			if end := off + int64(len(b)); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], b)
		}
		check := func(step int) bool {
			if file.Size() != int64(len(model)) || queued.Size() != file.Size() {
				t.Logf("seed %d step %d: size %d (queued %d), model %d", seed, step, file.Size(), queued.Size(), len(model))
				return false
			}
			off := rng.Int63n(int64(len(model)) + 8)
			n := rng.Int63n(int64(len(model)) - off + 16)
			want := make([]byte, n)
			if off < int64(len(model)) {
				copy(want, model[off:])
			}
			if got := file.ReadAt(off, n).Materialize(); !bytes.Equal(got, want) {
				t.Logf("seed %d step %d: ReadAt(%d, %d) = %v, want %v", seed, step, off, n, got, want)
				return false
			}
			if file.Extents() != queued.Extents() ||
				(len(file.resolved) > 0 && !reflect.DeepEqual(file.resolved, queued.resolved)) {
				t.Logf("seed %d step %d: extents\n%+v\nqueued-only\n%+v", seed, step, file.resolved, queued.resolved)
				return false
			}
			return true
		}
		for step := 0; step < 120; step++ {
			size := int64(len(model))
			switch r := rng.Intn(20); {
			case r < 7: // append
				p, b := gen(size, int64(1+rng.Intn(24)))
				if off := file.Append(p); off != size {
					t.Logf("seed %d step %d: Append landed at %d, want %d", seed, step, off, size)
					return false
				}
				queued.queue(size, p)
				model = append(model, b...)
			case r < 10: // a hole past the end of file
				off := size + int64(1+rng.Intn(16))
				p, b := gen(off, int64(1+rng.Intn(24)))
				write(off, p, b)
			case r < 13: // overwrite, possibly running past the end
				off := rng.Int63n(size + 1)
				p, b := gen(off, int64(1+rng.Intn(32)))
				write(off, p, b)
			case r < 14: // zero-length, anywhere
				off := rng.Int63n(size + 20)
				p, b := gen(off, 0)
				write(off, p, b)
			case r < 15:
				n := int64(0)
				if rng.Intn(2) == 0 {
					n = rng.Int63n(size + 8)
				}
				file.Truncate(n)
				queued.Truncate(n)
				if n < size {
					model = model[:n]
				}
			default:
				if !check(step) {
					return false
				}
			}
		}
		return check(-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFileAppendAllocFree: once a File's extent slice has grown, an
// append followed by the consolidation a read would run allocates
// nothing, for synthetic, byte and hole payloads, each written back to
// back and with a gap before every write.
func TestFileAppendAllocFree(t *testing.T) {
	const n = 1000
	buf := make([]byte, 64)
	for _, c := range []struct {
		name string
		p    func(off int64) Payload
	}{
		{"synthetic", func(off int64) Payload { return Synthetic(7, off, 64) }},
		{"bytes", func(int64) Payload { return FromBytes(buf) }},
		{"zeros", func(int64) Payload { return Zeros(64) }},
	} {
		for _, gap := range []int64{0, 16} {
			var f File
			appendOne := func() {
				off := f.Size() + gap
				f.WriteAt(off, c.p(off))
				f.Extents()
			}
			for i := 0; i < 2*n; i++ { // grow the extent slice
				appendOne()
			}
			f.Truncate(0)
			if got := testing.AllocsPerRun(n, appendOne); got >= 0.01 {
				t.Errorf("%s, gap %d: %.3f mallocs per append, want < 0.01", c.name, gap, got)
			}
		}
	}
}
