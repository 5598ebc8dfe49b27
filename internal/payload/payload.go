// Package payload represents file contents that may be either materialized
// bytes or synthetic pattern-generated extents.
//
// The simulator replays workloads that logically move terabytes (65,536
// processes × tens of MB each).  Storing those bytes is impossible, but the
// reproduction still has to prove that PLFS's index machinery returns the
// *right* bytes.  A synthetic payload carries (Tag, Phase, Len): the byte at
// stream position i is the deterministic PatternByte(Tag, Phase+i).  Slicing,
// concatenation, and storage preserve the algebra, so a reader can verify
// that the bytes that come back are exactly the bytes some writer put in —
// at any scale, in O(extents) memory.  Small-scale tests materialize real
// bytes through the same code paths to anchor the equivalence.
package payload

import (
	"bytes"
	"fmt"
)

// PatternByte is the deterministic synthetic content function: the byte at
// pattern position pos of the stream identified by tag.
func PatternByte(tag uint64, pos int64) byte {
	x := tag ^ (uint64(pos)+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return byte(x)
}

// Payload is a contiguous run of bytes.  Exactly one of three forms:
//
//   - materialized: Bytes != nil (Tag/Phase ignored)
//   - synthetic:    Bytes == nil, Tag != 0
//   - zeros:        Bytes == nil, Tag == 0 (unwritten holes)
type Payload struct {
	Bytes  []byte
	Tag    uint64
	Phase  int64
	Length int64
}

// FromBytes returns a materialized payload backed by b (not copied).
func FromBytes(b []byte) Payload {
	return Payload{Bytes: b, Length: int64(len(b))}
}

// Synthetic returns a pattern payload.  tag must be nonzero (zero is
// reserved for holes).
func Synthetic(tag uint64, phase, length int64) Payload {
	if tag == 0 {
		panic("payload: synthetic tag must be nonzero")
	}
	if length < 0 {
		panic("payload: negative length")
	}
	return Payload{Tag: tag, Phase: phase, Length: length}
}

// Zeros returns a hole payload of the given length.
func Zeros(length int64) Payload {
	if length < 0 {
		panic("payload: negative length")
	}
	return Payload{Length: length}
}

// Len returns the payload length in bytes.
func (p Payload) Len() int64 { return p.Length }

// IsZeros reports whether p is a hole (all-zero) payload.
func (p Payload) IsZeros() bool { return p.Bytes == nil && p.Tag == 0 }

// At returns the byte at index i (0 <= i < Len).
func (p Payload) At(i int64) byte {
	if i < 0 || i >= p.Length {
		panic(fmt.Sprintf("payload: index %d out of range [0,%d)", i, p.Length))
	}
	switch {
	case p.Bytes != nil:
		return p.Bytes[i]
	case p.Tag != 0:
		return PatternByte(p.Tag, p.Phase+i)
	default:
		return 0
	}
}

// Slice returns the sub-payload [off, off+length).  A slice of a hole is
// a plain hole: holes carry no phase, so a hole's form depends only on
// its length, however it was cut or merged.
func (p Payload) Slice(off, length int64) Payload {
	if off < 0 || length < 0 || off+length > p.Length {
		panic(fmt.Sprintf("payload: slice [%d,%d) of %d", off, off+length, p.Length))
	}
	switch {
	case p.Bytes != nil:
		return Payload{Bytes: p.Bytes[off : off+length], Length: length}
	case p.Tag == 0:
		return Zeros(length)
	}
	return Payload{Tag: p.Tag, Phase: p.Phase + off, Length: length}
}

// Materialize returns the payload contents as a fresh byte slice.
func (p Payload) Materialize() []byte {
	return p.AppendTo(make([]byte, 0, p.Length))
}

// AppendTo appends the payload contents to dst and returns the extended
// slice, so callers that render many payloads can reuse one buffer.
func (p Payload) AppendTo(dst []byte) []byte {
	if p.Bytes != nil {
		return append(dst, p.Bytes...)
	}
	n := len(dst)
	dst = append(dst, make([]byte, p.Length)...) // zero-extends in place
	if p.Tag != 0 {
		out := dst[n:]
		for i := range out {
			out[i] = PatternByte(p.Tag, p.Phase+int64(i))
		}
	}
	return dst
}

// canCoalesce reports whether q directly continues p as one payload.
func (p Payload) canCoalesce(q Payload) bool {
	if p.Bytes != nil || q.Bytes != nil {
		return false // materialized slices are not merged (avoids copies)
	}
	if p.Tag != q.Tag {
		return false
	}
	if p.Tag == 0 {
		return true // holes always merge
	}
	return p.Phase+p.Length == q.Phase
}

// List is a concatenation of payloads.
type List []Payload

// Len returns the total byte length.
func (l List) Len() int64 {
	var n int64
	for _, p := range l {
		n += p.Length
	}
	return n
}

// Append appends p to l, coalescing with the tail when possible.
func (l List) Append(p Payload) List {
	if p.Length == 0 {
		return l
	}
	if n := len(l); n > 0 && l[n-1].canCoalesce(p) {
		l[n-1].Length += p.Length
		return l
	}
	return append(l, p)
}

// Concat appends every payload of other to l.
func (l List) Concat(other List) List {
	for _, p := range other {
		l = l.Append(p)
	}
	return l
}

// Slice returns the byte range [off, off+length) of the concatenation.
func (l List) Slice(off, length int64) List {
	if off < 0 || length < 0 || off+length > l.Len() {
		panic(fmt.Sprintf("payload: list slice [%d,%d) of %d", off, off+length, l.Len()))
	}
	var out List
	for _, p := range l {
		if length == 0 {
			break
		}
		if off >= p.Length {
			off -= p.Length
			continue
		}
		take := p.Length - off
		if take > length {
			take = length
		}
		out = out.Append(p.Slice(off, take))
		off = 0
		length -= take
	}
	return out
}

// At returns the byte at index i of the concatenation.
func (l List) At(i int64) byte {
	for _, p := range l {
		if i < p.Length {
			return p.At(i)
		}
		i -= p.Length
	}
	panic("payload: list index out of range")
}

// Materialize returns the full concatenated contents.
func (l List) Materialize() []byte {
	out := make([]byte, 0, l.Len())
	for _, p := range l {
		out = p.AppendTo(out)
	}
	return out
}

// ContentEqual reports whether two lists describe identical byte streams.
func ContentEqual(a, b List) bool {
	if a.Len() != b.Len() {
		return false
	}
	// Walk both lists in lockstep comparing aligned chunks.
	ai, bi := 0, 0
	var ao, bo int64
	remaining := a.Len()
	for remaining > 0 {
		pa, pb := a[ai], b[bi]
		n := pa.Length - ao
		if m := pb.Length - bo; m < n {
			n = m
		}
		if !chunkEqual(pa, ao, pb, bo, n) {
			return false
		}
		ao += n
		bo += n
		remaining -= n
		if ao == pa.Length {
			ai++
			ao = 0
		}
		if bo == pb.Length {
			bi++
			bo = 0
		}
	}
	return true
}

func chunkEqual(pa Payload, ao int64, pb Payload, bo int64, n int64) bool {
	// Fast path: same synthetic stream at the same phase.
	if pa.Bytes == nil && pb.Bytes == nil && pa.Tag == pb.Tag &&
		(pa.Tag == 0 || pa.Phase+ao == pb.Phase+bo) {
		return true
	}
	if pa.Bytes != nil && pb.Bytes != nil {
		return bytes.Equal(pa.Bytes[ao:ao+n], pb.Bytes[bo:bo+n])
	}
	for i := int64(0); i < n; i++ {
		if pa.At(ao+i) != pb.At(bo+i) {
			return false
		}
	}
	return true
}
