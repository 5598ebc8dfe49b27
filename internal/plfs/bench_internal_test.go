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

// BenchmarkDecodeEntries measures index-dropping decode throughput on
// the reader's path — decodeFrame, then the dropping-id rewrite — for 64
// shards of 2,048 random writes, in the v1 layout and as the same records
// in v2: one shard at a time, and fanned out across the worker pool.
func BenchmarkDecodeEntries(b *testing.B) {
	const nShards, perShard = 64, 2048
	shards, _ := randomShards(rand.New(rand.NewSource(1)), nShards, perShard)
	out := make([][]Rec, nShards)
	for _, v2 := range []bool{false, true} {
		raws := make([][]byte, nShards)
		for i, s := range shards {
			raws[i] = appendFrame(nil, frame{kind: frameIndex, v2: v2, recs: recsOf(s)})
		}
		decode := func(b *testing.B, workers int) {
			b.ReportAllocs()
			b.SetBytes(nShards * perShard * EntryBytes)
			for i := 0; i < b.N; i++ {
				parallelFor(workers, nShards, func(s int) {
					f, err := decodeFrame(frameIndex, raws[s])
					if err != nil {
						b.Error(err)
					}
					for j := range f.recs {
						f.recs[j].Dropping = int32(s)
					}
					out[s] = f.recs
				})
			}
		}
		name := "v1"
		if v2 {
			name = "v2"
		}
		b.Run(name+"/serial", func(b *testing.B) { decode(b, 1) })
		b.Run(name+"/parallel", func(b *testing.B) { decode(b, benchWorkers()) })
	}
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
