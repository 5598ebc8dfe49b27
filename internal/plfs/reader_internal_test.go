package plfs

import (
	"reflect"
	"testing"

	"plfs/internal/obs"
	"plfs/internal/payload"
)

// TestSinglePieceMatchesPlanned serves the same one-piece lookup through
// the single-piece path and through the general sieving plan: same bytes,
// same backend reads, same obs counters — so a metrics snapshot cannot
// tell which path ran, and the plfsrun goldens hold.
func TestSinglePieceMatchesPlanned(t *testing.T) {
	const bs = 256
	shards, paths := stridedShards(2, 4, bs)
	fs := newMemFS()
	for r, p := range paths {
		fs.files[p] = payload.Synthetic(uint64(r+1), 0, 4*bs).Materialize()
	}
	m := NewMount([]string{"/"}, Options{})
	// open returns a reader over fs and the count of data reads the store
	// receives from it.
	open := func() (*Reader, *obs.Registry, *int) {
		reg, reads := obs.New(), new(int)
		vol := Interpose(fs, func(op *Op, call func() error) error {
			if op.Kind == OpReadAt || op.Kind == OpReadvAt {
				*reads++
			}
			return call()
		})
		r := m.newReader(Ctx{Vols: []Backend{vol}, Obs: reg}, "f")
		r.ix = buildEntries(shards, paths)
		return r, reg, reads
	}
	counters := func(reg *obs.Registry) map[string]int64 { return reg.Snapshot().Counters }

	// Rank 1's third block, minus a byte at each end.
	off, n := int64((2*2+1)*bs+1), int64(bs-2)
	fast, fastObs, fastReads := open()
	planned, plannedObs, plannedReads := open()
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
	if *fastReads != 1 || *plannedReads != 1 {
		t.Errorf("backend reads: single-piece %d, planned %d; want 1 each", *fastReads, *plannedReads)
	}
	if fc, pc := counters(fastObs), counters(plannedObs); !reflect.DeepEqual(fc, pc) {
		t.Errorf("obs counters differ:\n single-piece %v\n planned      %v", fc, pc)
	}

	// ReadAt itself takes the single-piece path for this lookup and the
	// plan for one that crosses a block boundary.
	viaReadAt, viaObs, viaReads := open()
	if _, err := viaReadAt.ReadAt(off, n); err != nil {
		t.Fatal(err)
	}
	wantCounters := counters(fastObs)
	wantCounters["plfs.read.ops"], wantCounters["plfs.read.bytes"] = 1, n // booked by ReadAt, above readOne
	if got := counters(viaObs); !reflect.DeepEqual(got, wantCounters) {
		t.Errorf("ReadAt counters %v, want %v", got, wantCounters)
	}
	two, err := viaReadAt.ReadAt(off, n+bs)
	if err != nil {
		t.Fatal(err)
	}
	ref := payload.List{payload.Synthetic(2, 2*bs+1, bs-1), payload.Synthetic(1, 3*bs, bs-1)}
	if !payload.ContentEqual(two, ref) {
		t.Errorf("two-piece read returned the wrong bytes")
	}
	if *viaReads != 3 {
		t.Errorf("backend reads after a one-piece and a two-piece read = %d, want 3", *viaReads)
	}
}
