package plfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// benchWorkers is the pool width the parallel sub-benchmarks use; on a
// single-core runner it is 1 again, so compare the sub-benchmarks on
// multi-core hardware.
func benchWorkers() int { return runtime.GOMAXPROCS(0) }

func benchRaws(shards [][]Entry) [][]byte {
	raws := make([][]byte, len(shards))
	for i, s := range shards {
		raws[i] = encodeEntries(s)
	}
	return raws
}

// BenchmarkDecodeEntries measures index-dropping decode throughput:
// one-at-a-time versus fanned out across the worker pool.
func BenchmarkDecodeEntries(b *testing.B) {
	const nShards, perShard = 64, 2048
	shards, _ := randomShards(rand.New(rand.NewSource(1)), nShards, perShard)
	raws := benchRaws(shards)
	out := make([][]Entry, nShards)
	nbytes := int64(nShards * perShard * EntryBytes)
	decode := func(b *testing.B, workers int) {
		b.SetBytes(nbytes)
		for i := 0; i < b.N; i++ {
			parallelFor(workers, len(raws), func(s int) {
				var err error
				out[s], err = decodeEntries(raws[s], int32(s))
				if err != nil {
					b.Error(err)
				}
			})
		}
	}
	b.Run("serial", func(b *testing.B) { decode(b, 1) })
	b.Run("parallel", func(b *testing.B) { decode(b, benchWorkers()) })
}

// stridedShards models an N-1 strided checkpoint: rank r's k-th block
// lands at logical (k*nShards+r)*bs, physically log-appended — the
// pattern run detection collapses to one record per writer.
func stridedShards(nShards, perShard int, bs int64) ([][]Entry, []string) {
	shards := make([][]Entry, nShards)
	paths := make([]string, nShards)
	for r := range shards {
		paths[r] = fmt.Sprintf("d%d", r)
		es := make([]Entry, perShard)
		for k := range es {
			es[k] = Entry{
				LogicalOff: (int64(k)*int64(nShards) + int64(r)) * bs,
				Length:     bs,
				PhysOff:    int64(k) * bs,
				Timestamp:  int64(k),
				Dropping:   int32(r),
				Rank:       int32(r),
			}
		}
		shards[r] = es
	}
	return shards, paths
}

// BenchmarkIndexBuild compares resolved-index construction from expanded
// per-entry records against run-compressed records for a strided N-1
// workload (where compression is maximal: one record per writer).
func BenchmarkIndexBuild(b *testing.B) {
	const nShards, perShard = 64, 2048
	shards, paths := stridedShards(nShards, perShard, 512)
	expanded := make([][]Rec, nShards)
	compressed := make([][]Rec, nShards)
	for i, s := range shards {
		expanded[i] = recsOf(s)
		compressed[i] = compressRecs(s)
	}
	b.Run("expanded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ix := BuildIndexRecs(expanded, paths, 1); ix.RawEntries() != nShards*perShard {
				b.Fatal("bad build")
			}
		}
	})
	b.Run("run-compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ix := BuildIndexRecs(compressed, paths, 1); ix.RawEntries() != nShards*perShard {
				b.Fatal("bad build")
			}
		}
	})
}

// BenchmarkIndexLookup measures resolved-index range lookups through a
// reused piece buffer.  Both paths must report 0 allocs/op (enforced by
// TestLookupAllocFree): the run table via phase arithmetic, the segment
// table via binary search.
func BenchmarkIndexLookup(b *testing.B) {
	const nShards, perShard, bs = 64, 2048, int64(512)
	run := func(b *testing.B, ix *Index) {
		b.ReportAllocs()
		span := ix.Size()
		buf := make([]Piece, 0, 256)
		var off int64
		b.ResetTimer() // exclude the one-time index build and buffer alloc
		for i := 0; i < b.N; i++ {
			buf = ix.AppendPieces(buf[:0], off%span, 16*bs)
			off += 7 * bs
		}
	}
	shards, paths := stridedShards(nShards, perShard, bs)
	compressed := make([][]Rec, nShards)
	for i, s := range shards {
		compressed[i] = compressRecs(s)
	}
	b.Run("runs", func(b *testing.B) {
		run(b, BuildIndexRecs(compressed, paths, 1))
	})
	rnd, rpaths := randomShards(rand.New(rand.NewSource(3)), nShards, perShard)
	b.Run("segments", func(b *testing.B) {
		run(b, buildEntries(rnd, rpaths))
	})
}

// BenchmarkBuildIndex measures global-index construction from single
// records at permuted offsets (no shard arrives sorted): all disjoint, as a
// checkpoint's are, and with every tenth record moved half a slot onto its
// neighbour, so the merge meets a cluster to sweep about every tenth
// record.  One build; workers only spreads the per-shard sorts.
func BenchmarkBuildIndex(b *testing.B) {
	const nShards, perShard, bs = 64, 2048, int64(512)
	disjoint, paths := permutedShards(rand.New(rand.NewSource(2)), nShards, perShard, bs)
	overlap := make([][]Rec, nShards)
	for s, sh := range disjoint {
		overlap[s] = slices.Clone(sh)
		for k := 0; k < perShard; k += 10 {
			overlap[s][k].LogicalOff += bs / 2
		}
	}
	for _, in := range []struct {
		name   string
		shards [][]Rec
	}{{"disjoint", disjoint}, {"overlap10", overlap}} {
		for _, w := range []int{1, benchWorkers()} {
			b.Run(fmt.Sprintf("%s/workers=%d", in.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ix := BuildIndexRecs(in.shards, paths, w); ix.RawEntries() != nShards*perShard {
						b.Fatal("bad build")
					}
				}
			})
		}
	}
}
