package plfs

import (
	"reflect"
	"sort"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/payload"
)

// TestSinglePieceMatchesPlanned serves the same one-piece lookup through
// the single-piece path and through the general sieving plan: same bytes,
// same ReadStats, same obs counter keys — so a metrics snapshot cannot
// tell which path ran, and the plfsrun goldens hold.
func TestSinglePieceMatchesPlanned(t *testing.T) {
	const bs = 256
	shards, paths := stridedShards(2, 4, bs)
	fs := newMemFS()
	for r, p := range paths {
		fs.files[p] = payload.Synthetic(uint64(r+1), 0, 4*bs).Materialize()
	}
	m := NewMount([]string{"/"}, Options{})
	open := func() (*Reader, *obs.Registry) {
		reg := obs.New()
		r := m.newReader(Ctx{Vols: []Backend{fs}, Obs: reg}, "f")
		r.ix = buildEntries(shards, paths)
		return r, reg
	}
	keys := func(reg *obs.Registry) []string {
		var ks []string
		for k := range reg.Snapshot().Counters {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}

	// Rank 1's third block, minus a byte at each end.
	off, n := int64((2*2+1)*bs+1), int64(bs-2)
	fast, fastObs := open()
	planned, plannedObs := open()
	pieces := fast.ix.AppendPieces(nil, off, n)
	if len(pieces) != 1 || pieces[0].Dropping != 1 {
		t.Fatalf("lookup = %+v, want one piece of dropping 1", pieces)
	}
	got, err := fast.readOne(pieces[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := planned.readPlanned(pieces)
	if err != nil {
		t.Fatal(err)
	}
	if !payload.ContentEqual(got, want) {
		t.Errorf("single-piece path and planned path returned different bytes")
	}
	if ref := (payload.List{payload.Synthetic(2, 2*bs+1, n)}); !payload.ContentEqual(got, ref) {
		t.Errorf("single-piece path returned the wrong bytes")
	}
	if !reflect.DeepEqual(fast.ReadStats, planned.ReadStats) {
		t.Errorf("ReadStats differ:\n single-piece %+v\n planned      %+v", fast.ReadStats, planned.ReadStats)
	}
	if fk, pk := keys(fastObs), keys(plannedObs); !reflect.DeepEqual(fk, pk) {
		t.Errorf("obs counter keys differ:\n single-piece %v\n planned      %v", fk, pk)
	}

	// ReadAt itself takes the single-piece path for this lookup and the
	// plan for one that crosses a block boundary.
	viaReadAt, _ := open()
	if _, err := viaReadAt.ReadAt(off, n); err != nil {
		t.Fatal(err)
	}
	fast.ReadStats.Ops, fast.ReadStats.Pieces = 1, 1 // booked by ReadAt/readPieces, above readOne
	if !reflect.DeepEqual(viaReadAt.ReadStats, fast.ReadStats) {
		t.Errorf("ReadAt stats %+v, want %+v", viaReadAt.ReadStats, fast.ReadStats)
	}
	two, err := viaReadAt.ReadAt(off, n+bs)
	if err != nil {
		t.Fatal(err)
	}
	ref := payload.List{payload.Synthetic(2, 2*bs+1, bs-1), payload.Synthetic(1, 3*bs, bs-1)}
	if !payload.ContentEqual(two, ref) {
		t.Errorf("two-piece read returned the wrong bytes")
	}
	if viaReadAt.ReadStats.Batches != 3 {
		t.Errorf("batches after a one-piece and a two-piece read = %d, want 3", viaReadAt.ReadStats.Batches)
	}
}
