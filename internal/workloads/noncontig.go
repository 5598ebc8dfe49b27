package workloads

import (
	"fmt"

	"plfs/internal/adio"
	"plfs/internal/payload"
)

// Access names the file-side contiguity of a noncontiguous kernel — the
// file axis of the four-quadrant taxonomy (memory × file) of Thakur et
// al.'s datatype studies.
type Access int

const (
	// AccessContig gives each rank one contiguous block per step.
	AccessContig Access = iota
	// AccessStrided is the structured-mesh quadrant: a row-decomposed 2-D
	// array, each rank owning one column of blocks (a Vector datatype).
	AccessStrided
	// AccessIrregular is the irregular quadrant: each rank's blocks land
	// at permuted, non-monotonic displacements (an Indexed datatype).
	AccessIrregular
)

// String implements fmt.Stringer (also the -access flag syntax).
func (a Access) String() string {
	switch a {
	case AccessContig:
		return "contig"
	case AccessStrided:
		return "strided"
	case AccessIrregular:
		return "irregular"
	}
	return fmt.Sprintf("Access(%d)", int(a))
}

// ParseAccess parses the -access flag syntax.
func ParseAccess(s string) (Access, error) {
	for _, a := range []Access{AccessContig, AccessStrided, AccessIrregular} {
		if s == a.String() {
			return a, nil
		}
	}
	return AccessContig, fmt.Errorf("workloads: unknown access pattern %q (want contig|strided|irregular)", s)
}

// Noncontig is the noncontiguous-access kernel: Steps bulk-synchronous
// steps, each writing BlocksPerRank blocks of BlockSize bytes per rank
// with the file layout Access selects, through one datatype-driven
// WriteAll per step.  MemContig picks the memory axis of the taxonomy:
// true hands the layer one contiguous buffer per step (sliced across the
// file segments); false hands it one piece per block, as a strided
// in-memory layout would.  The read phase replays the same pattern with
// ReadAll and verifies content.
type Noncontig struct {
	Access        Access
	BlockSize     int64
	BlocksPerRank int
	Steps         int
	MemContig     bool
	Seed          int64 // irregular permutation seed (shared by all ranks)
}

// Name implements Kernel.
func (k Noncontig) Name() string {
	mem := "memstrided"
	if k.MemContig {
		mem = "memcontig"
	}
	return fmt.Sprintf("noncontig-%s-%s", k.Access, mem)
}

// datatype builds the step's access pattern and base offset for a rank.
// Each step owns the file region [stepBytes*step, stepBytes*(step+1)),
// tiled by n*BlocksPerRank blocks; ranks own disjoint block slots.
func (k Noncontig) datatype(step, rank, n int) (int64, *adio.Datatype) {
	stepBase := int64(step) * k.BlockSize * int64(k.BlocksPerRank) * int64(n)
	switch k.Access {
	case AccessStrided:
		// Column rank of a BlocksPerRank × n block mesh.
		base := stepBase + int64(rank)*k.BlockSize
		return base, adio.Vector(k.BlocksPerRank, k.BlockSize, k.BlockSize*int64(n))
	case AccessIrregular:
		perm := permute(k.BlocksPerRank*n, k.Seed+int64(step))
		disps := make([]int64, k.BlocksPerRank)
		for b := 0; b < k.BlocksPerRank; b++ {
			disps[b] = int64(perm[b*n+rank]) * k.BlockSize
		}
		return stepBase, adio.IndexedOf(disps, adio.Contig(k.BlockSize))
	default:
		base := stepBase + int64(rank)*k.BlockSize*int64(k.BlocksPerRank)
		return base, adio.Contig(k.BlockSize * int64(k.BlocksPerRank))
	}
}

// data builds the step's in-memory payload for a rank: one piece when
// MemContig, one per block otherwise.  Content is keyed by (rank tag,
// logical position within the rank's stream), so it is independent of
// where the blocks land in the file and round-trips through any driver.
func (k Noncontig) data(step, rank int) payload.List {
	total := k.BlockSize * int64(k.BlocksPerRank)
	phase := int64(step) * total
	if k.MemContig {
		return payload.List{payload.Synthetic(tag(rank), phase, total)}
	}
	var out payload.List
	for b := 0; b < k.BlocksPerRank; b++ {
		out = out.Append(payload.Synthetic(tag(rank), phase+int64(b)*k.BlockSize, k.BlockSize))
	}
	return out
}

// permute returns a deterministic permutation of [0, n) derived from
// seed — the shared irregular-access map every rank computes.
func permute(n int, seed int64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Run implements Kernel.  Step s is datatype op s of the row.
func (k Noncontig) Run(env *Env, readBack bool) (Result, error) {
	r := once(access{count: k.Steps, size: k.BlockSize * int64(k.BlocksPerRank), runs: 1})
	r.calls = datatype
	r.dt = func(s, rank, n int) (int64, *adio.Datatype, payload.List) {
		base, dt := k.datatype(s, rank, n)
		return base, dt, k.data(s, rank)
	}
	return r.run(env, readBack)
}
