package plfs_test

import (
	"slices"
	"strings"
	"testing"

	"plfs/internal/extent"
	"plfs/internal/localcomm"
	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// countDataOps routes ctx's volumes through an interceptor that counts
// the calls of the given kinds on data droppings, as the store receives
// them.  The count is the rank's own: ranks run on their own contexts.
func countDataOps(ctx *plfs.Ctx, kinds ...plfs.OpKind) *int {
	n := new(int)
	vols := make([]plfs.Backend, len(ctx.Vols))
	for i, v := range ctx.Vols {
		vols[i] = plfs.Interpose(v, func(op *plfs.Op, call func() error) error {
			if slices.Contains(kinds, op.Kind) && strings.Contains(op.Path, "dropping.data.") {
				*n++
			}
			return call()
		})
	}
	ctx.Vols = vols
	return n
}

// TestWritevSingleBackendAppend pins the O(1)-backend-ops property of
// list I/O through PLFS: one Writev call with K strided extents must land
// as ONE data-dropping append (osfs implements BatchAppender) and K index
// entries — not K appends.  This is the whole point of pushing the
// vectored call down the stack instead of looping at the top.
func TestWritevSingleBackendAppend(t *testing.T) {
	const n, k = 4, 16
	const bs = int64(512)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		reg := obs.New()
		ctx.Obs = reg
		appends := countDataOps(&ctx, plfs.OpAppend, plfs.OpAppendv)
		w, err := r.m.Create(ctx, "vec")
		if err != nil {
			t.Errorf("rank %d create: %v", rank, err)
			return
		}
		segs := make([]extent.Ext, k)
		var data payload.List
		for i := 0; i < k; i++ {
			off := int64(i*n+rank) * bs
			segs[i] = extent.Ext{Off: off, Len: bs}
			data = data.Append(payload.Synthetic(uint64(rank+1), off, bs))
		}
		if err := w.Writev(segs, data); err != nil {
			t.Errorf("rank %d writev: %v", rank, err)
		}
		// The acceptance criterion: K extents, one physical append.  Close
		// appends the recovery footer, so count before it.
		if *appends != 1 {
			t.Errorf("rank %d: %d backend appends for one Writev, want 1", rank, *appends)
		}
		if ops, segs := reg.Counter("plfs.write.vec_ops").Value(), reg.Counter("plfs.write.vec_segs").Value(); ops != 1 || segs != k {
			t.Errorf("rank %d: vec_ops=%d vec_segs=%d, want 1/%d", rank, ops, segs, k)
		}
		if err := w.Close(); err != nil {
			t.Errorf("rank %d close: %v", rank, err)
		}
	})

	// Read side: one ReadAtv over the rank's extents is one vectored call,
	// content-verified per segment.
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		reg := obs.New()
		ctx.Obs = reg
		reads := countDataOps(&ctx, plfs.OpReadAt, plfs.OpReadvAt)
		rd, err := r.m.OpenReader(ctx, "vec")
		if err != nil {
			t.Errorf("rank %d open: %v", rank, err)
			return
		}
		defer rd.Close()
		segs := make([]extent.Ext, k)
		var want payload.List
		for i := 0; i < k; i++ {
			off := int64(i*n+rank) * bs
			segs[i] = extent.Ext{Off: off, Len: bs}
			want = want.Append(payload.Synthetic(uint64(rank+1), off, bs))
		}
		got, err := rd.ReadAtv(segs)
		if err != nil {
			t.Errorf("rank %d readv: %v", rank, err)
			return
		}
		if !payload.ContentEqual(got, want) {
			t.Errorf("rank %d: ReadAtv content mismatch", rank)
		}
		if ops, segs := reg.Counter("plfs.read.vec_ops").Value(), reg.Counter("plfs.read.vec_segs").Value(); ops != 1 || segs != k {
			t.Errorf("rank %d: vec_ops=%d vec_segs=%d, want 1/%d", rank, ops, segs, k)
		}
		// The rank's extents lie back to back in its own data dropping, so
		// the plan coalesces them into one backend read.
		if *reads != 1 {
			t.Errorf("rank %d: %d backend data reads for one ReadAtv, want 1", rank, *reads)
		}
	})
}

// TestWritevMatchesWriteLoop checks that a vectored write produces a file
// byte-identical to the same extents written one at a time.
func TestWritevMatchesWriteLoop(t *testing.T) {
	const n, k = 2, 8
	const bs = int64(256)
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.ParallelIndexRead, NumSubdirs: 4})
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		// Loop file.
		w, err := r.m.Create(ctx, "loop")
		if err != nil {
			t.Errorf("rank %d create: %v", rank, err)
			return
		}
		for i := 0; i < k; i++ {
			off := int64(i*n+rank) * bs
			if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
				t.Errorf("rank %d write: %v", rank, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Errorf("rank %d close: %v", rank, err)
		}
		// Vectored file, same extents in one call.
		wv, err := r.m.Create(ctx, "vec")
		if err != nil {
			t.Errorf("rank %d create: %v", rank, err)
			return
		}
		segs := make([]extent.Ext, k)
		var data payload.List
		for i := 0; i < k; i++ {
			off := int64(i*n+rank) * bs
			segs[i] = extent.Ext{Off: off, Len: bs}
			data = data.Append(payload.Synthetic(uint64(rank+1), off, bs))
		}
		if err := wv.Writev(segs, data); err != nil {
			t.Errorf("rank %d writev: %v", rank, err)
		}
		if err := wv.Close(); err != nil {
			t.Errorf("rank %d close: %v", rank, err)
		}
	})
	ctx := r.ctx(0, localcomm.New(1)[0])
	for _, name := range []string{"loop", "vec"} {
		rd, err := r.m.OpenReader(ctx, name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		verifyN1(t, rd, n, k, bs)
		rd.Close()
	}
}
