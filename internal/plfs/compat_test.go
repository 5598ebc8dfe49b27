package plfs_test

// Back-compat fixtures: containers laid out byte-by-byte in the v1
// formats — 40-byte raw index entries with no version magic, no checksum
// trailers, no recovery footers, and the v1 global index — must stay
// fully readable, scrubbable, and repairable after the v2
// run-record framing.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"plfs/internal/plfs"
)

// v1Entry hand-encodes one legacy 40-byte little-endian index entry.
func v1Entry(logical, length, phys, ts int64, drop, rank int32) []byte {
	b := make([]byte, 40)
	binary.LittleEndian.PutUint64(b[0:], uint64(logical))
	binary.LittleEndian.PutUint64(b[8:], uint64(length))
	binary.LittleEndian.PutUint64(b[16:], uint64(phys))
	binary.LittleEndian.PutUint64(b[24:], uint64(ts))
	binary.LittleEndian.PutUint32(b[32:], uint32(drop))
	binary.LittleEndian.PutUint32(b[36:], uint32(rank))
	return b
}

// buildLegacyContainer writes a v1-era container for "legacy" under root
// by hand and returns the expected logical content.  Layout: a data
// dropping with no recovery footer, an index dropping of raw entries
// with no trailer, a legacy two-part size record, and optionally a v1
// global index.
func buildLegacyContainer(t *testing.T, root string, withGlobal bool) []byte {
	t.Helper()
	dir := filepath.Join(root, "legacy")
	for _, d := range []string{dir, filepath.Join(dir, "meta"),
		filepath.Join(dir, "openhosts"), filepath.Join(dir, "hostdir.0")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 128)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	index := append(v1Entry(0, 64, 0, 1, 0, 0), v1Entry(64, 64, 64, 2, 0, 0)...)
	files := map[string][]byte{
		filepath.Join(dir, ".plfsaccess"):                     nil,
		filepath.Join(dir, "meta", "sz.128.0"):                nil,
		filepath.Join(dir, "hostdir.0", "dropping.data.1.0"):  data,
		filepath.Join(dir, "hostdir.0", "dropping.index.1.0"): index,
	}
	if withGlobal {
		dp := filepath.Join(dir, "hostdir.0", "dropping.data.1.0")
		g := binary.LittleEndian.AppendUint32(nil, 1)
		g = binary.LittleEndian.AppendUint32(g, uint32(len(dp)))
		g = append(g, dp...)
		g = binary.LittleEndian.AppendUint64(g, 2)
		g = append(g, index...)
		files[filepath.Join(dir, "meta", "global.index")] = g
	}
	for p, b := range files {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return data
}

func TestV1ContainerBackCompat(t *testing.T) {
	for _, withGlobal := range []bool{false, true} {
		name := "droppings-only"
		if withGlobal {
			name = "with-global-index"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 1, plfs.Options{IndexMode: plfs.Original})
			want := buildLegacyContainer(t, r.roots[0], withGlobal)
			ctx := r.ctx(0, nil)

			readBack := func() {
				t.Helper()
				rd, err := r.m.OpenReader(ctx, "legacy")
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Close()
				if !rd.Stats.CacheHit && rd.Stats.UsedGlobal != withGlobal {
					t.Fatalf("UsedGlobal = %v, want %v", rd.Stats.UsedGlobal, withGlobal)
				}
				if rd.Size() != int64(len(want)) {
					t.Fatalf("size %d, want %d", rd.Size(), len(want))
				}
				got, err := rd.ReadAt(0, rd.Size())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Materialize(), want) {
					t.Fatal("v1 container read back wrong bytes")
				}
			}
			readBack()

			srep, err := r.m.Scrub(ctx, "legacy")
			if err != nil {
				t.Fatal(err)
			}
			if srep.Found() != 0 || srep.IndexesChecked != 1 || srep.Logical != 128 {
				t.Fatalf("scrub: %s", srep)
			}
			rrep, err := r.m.Repair(ctx, "legacy")
			if err != nil {
				t.Fatal(err)
			}
			if rrep.Found() != 0 || rrep.Droppings != 1 {
				t.Fatalf("repair: %s", rrep)
			}
			readBack() // still readable after the repair pass
		})
	}
}
