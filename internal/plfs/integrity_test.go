package plfs_test

// End-to-end integrity tests: checksummed framing detects silent
// corruption that the unchecksummed container serves back without
// complaint, VerifyData turns detection into read-time enforcement, and
// the atomic-commit machinery (temp sweep, torn-append retry) keeps
// metadata publication all-or-nothing, and Scrub and Repair agree on what
// every kind of damage is.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/obs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// flipByte XORs one byte of an on-disk file.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= int64(len(buf)) {
		t.Fatalf("flip offset %d beyond %d bytes", off, len(buf))
	}
	buf[off] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// globOne returns the single match of a glob pattern.
func globOne(t *testing.T, pattern string) string {
	t.Helper()
	matches, err := filepath.Glob(pattern)
	if err != nil || len(matches) == 0 {
		t.Fatalf("glob %s: %v (%d matches)", pattern, err, len(matches))
	}
	return matches[0]
}

// writeIntegrityFile writes a small strided N-1 file and returns the rig,
// which has one volume per index replica.
func writeIntegrityFile(t *testing.T, opt plfs.Options, name string) *rig {
	t.Helper()
	const n, blocks, bs = 2, 2, int64(256)
	r := newRig(t, max(1, opt.IndexReplicas), opt)
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		writeN1(t, r.m, ctx, rank, n, blocks, bs, name)
	})
	return r
}

// TestChecksumDetectsBitFlip is the acceptance A/B: a flipped data byte
// is named by Scrub (with the dropping path and extent) when the
// container was written with Options.Checksum, and served back silently
// when it was not.
func TestChecksumDetectsBitFlip(t *testing.T) {
	const n, blocks, bs = 2, 2, int64(256)
	for _, checksum := range []bool{true, false} {
		name := "abflip"
		t.Run(map[bool]string{true: "on", false: "off"}[checksum], func(t *testing.T) {
			r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: checksum}, name)
			data := globOne(t, filepath.Join(r.roots[0], name, "hostdir.*", "dropping.data.*"))
			flipByte(t, data, 0) // physical offset 0: inside the first extent

			rep, err := r.m.Scrub(serialCtx(r, 0), name)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if checksum {
				found := false
				for _, p := range rep.Problems {
					if p.Kind == "checksum-data" && strings.Contains(p.Path, "dropping.data") && p.Extent != "" {
						found = true
					}
				}
				if !found {
					t.Fatalf("scrub missed the flipped byte: %s", rep)
				}
			} else {
				if !rep.OK() {
					t.Fatalf("unchecksummed scrub reported: %s", rep)
				}
				// The corruption is served back without any error: silent.
				rd, err := r.m.OpenReader(serialCtx(r, 0), name)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				defer rd.Close()
				got, err := rd.ReadAt(0, int64(n*blocks)*bs)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				clean := true
				for k := 0; k < blocks && clean; k++ {
					for i := 0; i < n; i++ {
						off := int64(k*n+i) * bs
						want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
						if !payload.ContentEqual(got.Slice(off, bs), want) {
							clean = false
							break
						}
					}
				}
				if clean {
					t.Fatal("flipped byte did not surface in the read — flip missed the data?")
				}
			}
		})
	}
}

// TestVerifyDataEnforcesChecksums turns read-time verification on
// against a corrupted checksummed container: strict reads fail naming
// the extent, AllowPartial reads substitute zeros and count the error.
func TestVerifyDataEnforcesChecksums(t *testing.T) {
	const n, blocks, bs = 2, 2, int64(256)
	name := "verify"
	r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: true}, name)
	data := globOne(t, filepath.Join(r.roots[0], name, "hostdir.*", "dropping.data.*"))
	flipByte(t, data, 0)
	total := int64(n*blocks) * bs

	strict := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.Original, VerifyData: true})
	rd, err := strict.OpenReader(serialCtx(r, 0), name)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := rd.ReadAt(0, total); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("strict read of corrupt data: err = %v, want checksum mismatch", err)
	}
	rd.Close()

	part := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.Original, VerifyData: true, AllowPartial: true})
	ctx := serialCtx(r, 0)
	reg := obs.New()
	ctx.Obs = reg
	rd, err = part.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	got, err := rd.ReadAt(0, total)
	if err != nil {
		t.Fatalf("partial read: %v", err)
	}
	if reg.Counter("plfs.read.checksum_zero_fill").Value() == 0 {
		t.Fatal("AllowPartial read did not count the checksum error")
	}
	zeros := payload.List{payload.Zeros(bs)}
	sawZeros := false
	for k := 0; k < blocks; k++ {
		for i := 0; i < n; i++ {
			off := int64(k*n+i) * bs
			b := got.Slice(off, bs)
			want := payload.List{payload.Synthetic(uint64(i+1), off, bs)}
			switch {
			case payload.ContentEqual(b, want):
			case payload.ContentEqual(b, zeros):
				sawZeros = true
			default:
				t.Errorf("block (k=%d, rank=%d): corrupt bytes leaked through AllowPartial", k, i)
			}
		}
	}
	if !sawZeros {
		t.Fatal("no block was zero-substituted despite a checksum error")
	}
}

// TestVerifyDataCountsPhysBytes: a VerifyData read books the data it
// fetched in plfs.read.phys_bytes like any other read, and only that:
// the whole-extent rereads that check the footer CRCs are not counted.
func TestVerifyDataCountsPhysBytes(t *testing.T) {
	name := "verified"
	r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: true}, name)
	m := plfs.NewMount(r.roots, plfs.Options{IndexMode: plfs.Original, VerifyData: true})
	ctx := serialCtx(r, 0)
	reg := obs.New()
	ctx.Obs = reg
	rd, err := m.OpenReader(ctx, name)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	// A read that starts and ends inside extents, so the verification
	// rereads cover more than the read returns.
	got, err := rd.ReadAt(1, rd.Size()-2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if phys := reg.Counter("plfs.read.phys_bytes").Value(); phys != got.Len() {
		t.Errorf("plfs.read.phys_bytes = %d after a verified read of %d bytes", phys, got.Len())
	}
}

// TestScrubDetectsCorruptIndexTrailer flips a byte inside a checksummed
// index dropping: Scrub reports index-corrupt, and readers refuse the
// shard.
func TestScrubDetectsCorruptIndexTrailer(t *testing.T) {
	name := "ixflip"
	r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: true}, name)
	ix := globOne(t, filepath.Join(r.roots[0], name, "hostdir.*", "dropping.index.*"))
	flipByte(t, ix, 3)

	rep, err := r.m.Scrub(serialCtx(r, 0), name)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	found := false
	for _, p := range rep.Problems {
		if p.Kind == "index-corrupt" && strings.Contains(p.Detail, "checksum mismatch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub missed the corrupt index trailer: %s", rep)
	}
	if _, err := r.m.OpenReader(serialCtx(r, 0), name); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("open over corrupt index: err = %v, want checksum mismatch", err)
	}
}

// footerEntries returns the raw 40-byte entries of a data dropping's
// checksummed (v2) recovery footer: [entries][crcs][crc][0][n][magic].
func footerEntries(t *testing.T, data string) [][]byte {
	t.Helper()
	buf, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint64(buf[len(buf)-16:]))
	body := buf[len(buf)-24-n*(plfs.EntryBytes+4):]
	out := make([][]byte, n)
	for i := range out {
		out[i] = append([]byte(nil), body[i*plfs.EntryBytes:(i+1)*plfs.EntryBytes]...)
	}
	return out
}

// writeIndex replaces an index dropping with raw (v1, unchecksummed)
// entries, a format every reader still accepts.
func writeIndex(t *testing.T, path string, entries [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(entries, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rank0Droppings returns rank 0's data and index droppings in a
// writeIntegrityFile container: damage there never moves the logical
// size, which rank 1's last block sets.
func rank0Droppings(t *testing.T, r *rig, name string) (data, index string) {
	t.Helper()
	for _, d := range dataFiles(t, r, name) {
		if binary.LittleEndian.Uint64(footerEntries(t, d)[0]) == 0 { // LogicalOff
			return d, strings.Replace(d, "dropping.data.", "dropping.index.", 1)
		}
	}
	t.Fatal("no dropping of rank 0")
	return "", ""
}

// TestIntegrityFindings plants each kind of damage once in a fresh
// 2-rank checksummed container and asserts the kinds Scrub reports and
// what Repair does with them: Scrub repairs nothing but orphaned temps,
// Repair's ledger is found = repaired + unrepairable, and a pass that
// leaves nothing behind is followed by a Scrub that finds nothing.
func TestIntegrityFindings(t *testing.T) {
	setLength := func(e []byte, n int64) { binary.LittleEndian.PutUint64(e[8:], uint64(n)) }
	flatten := plfs.Options{IndexMode: plfs.IndexFlatten}
	cases := []struct {
		name  string
		opt   plfs.Options
		plant func(t *testing.T, r *rig, name string)
		scrub []string // kinds Scrub reports, sorted
		// Repair's ledger.
		repaired, unrepairable int
	}{
		{"corrupt-index-trailer", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			_, ix := rank0Droppings(t, r, name)
			flipByte(t, ix, 3)
		}, []string{"index-corrupt"}, 1, 0},
		{"orphan-index", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			_, ix := rank0Droppings(t, r, name)
			buf, err := os.ReadFile(ix)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(filepath.Dir(ix), "dropping.index.9.9"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"orphan-index"}, 0, 1},
		{"short-index", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			data, ix := rank0Droppings(t, r, name)
			ents := footerEntries(t, data)
			writeIndex(t, ix, ents[len(ents)-1:])
		}, []string{"coverage", "index-footer-mismatch"}, 2, 0},
		{"record-ends-in-footer", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			data, ix := rank0Droppings(t, r, name)
			ents := footerEntries(t, data)
			setLength(ents[len(ents)-1], 256+8)
			writeIndex(t, ix, ents)
		}, []string{"coverage", "extent-bounds"}, 2, 0},
		{"zero-length-record", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			data, ix := rank0Droppings(t, r, name)
			ents := footerEntries(t, data)
			setLength(ents[0], 0)
			writeIndex(t, ix, ents)
		}, []string{"coverage", "extent-bounds"}, 2, 0},
		{"size-record", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			if err := os.WriteFile(filepath.Join(r.roots[0], name, "meta", "sz.99999.0.7"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, []string{"size-record"}, 0, 1},
		{"orphan-tmp", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			_, ix := rank0Droppings(t, r, name)
			for _, p := range []string{
				filepath.Join(r.roots[0], name, "meta", "global.index.tmp.0"),
				filepath.Join(filepath.Dir(ix), "dropping.index.9.9.tmp.3"),
			} {
				if err := os.WriteFile(p, []byte("stranded"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}, []string{"orphan-tmp"}, 2, 0},
		{"flipped-data-byte", plfs.Options{}, func(t *testing.T, r *rig, name string) {
			data, _ := rank0Droppings(t, r, name)
			flipByte(t, data, 0)
		}, []string{"checksum-data"}, 0, 1},
		// A flattened container has no per-writer indexes: Repair drops its
		// corrupt global index and rebuilds them from the footers.
		{"corrupt-global-index", flatten, func(t *testing.T, r *rig, name string) {
			flipByte(t, filepath.Join(r.roots[0], name, "meta", "global.index"), 3)
		}, []string{"global-index", "size-record", "unreachable"}, 3, 0},
		{"lost-global-index", plfs.Options{IndexMode: plfs.IndexFlatten, IndexReplicas: 2}, func(t *testing.T, r *rig, name string) {
			if err := os.Remove(filepath.Join(r.roots[0], name, "meta", "global.index")); err != nil {
				t.Fatal(err)
			}
		}, []string{"global-index"}, 1, 0},
		{"lost-replica", plfs.Options{IndexReplicas: 2}, func(t *testing.T, r *rig, name string) {
			_, ix := rank0Droppings(t, r, name)
			if err := os.Remove(strings.Replace(ix, r.roots[0], r.roots[1], 1)); err != nil {
				t.Fatal(err)
			}
		}, []string{"replica"}, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.opt.Checksum = true
			for _, tool := range []string{"scrub", "repair"} {
				const name = "damaged"
				r := writeIntegrityFile(t, c.opt, name)
				c.plant(t, r, name)
				pass := r.m.Scrub
				if tool == "repair" {
					pass = r.m.Repair
				}
				rep, err := pass(serialCtx(r, 0), name)
				if err != nil {
					t.Fatalf("%s: %v", tool, err)
				}
				seen := map[string]bool{}
				var kinds []string
				for _, p := range rep.Problems {
					if !seen[p.Kind] {
						seen[p.Kind] = true
						kinds = append(kinds, p.Kind)
					}
					if tool == "scrub" && p.Repaired && p.Kind != "orphan-tmp" {
						t.Errorf("scrub repaired %s", p)
					}
				}
				sort.Strings(kinds)
				if tool == "scrub" && strings.Join(kinds, ",") != strings.Join(c.scrub, ",") {
					t.Fatalf("scrub kinds %v, want %v:\n%s", kinds, c.scrub, rep)
				}
				if tool == "repair" && (rep.Repaired() != c.repaired || rep.Unrepairable() != c.unrepairable) {
					t.Fatalf("repair: repaired %d + unrepairable %d, want %d + %d:\n%s",
						rep.Repaired(), rep.Unrepairable(), c.repaired, c.unrepairable, rep)
				}
				if rep.OK() {
					again, err := r.m.Scrub(serialCtx(r, 0), name)
					if err != nil || again.Found() != 0 {
						t.Fatalf("scrub after %s: %v\n%s", tool, err, again)
					}
				}
			}
		})
	}
}

// TestScrubAndRecoverSweepOrphanTmp plants stranded atomic-commit temp
// files (the residue of a crashed publish) and checks both Scrub and
// Repair, which `plfsctl recover` runs, delete them and report each one
// as a repaired orphan-tmp finding.
func TestScrubAndRecoverSweepOrphanTmp(t *testing.T) {
	for _, tool := range []string{"scrub", "recover"} {
		t.Run(tool, func(t *testing.T) {
			name := "orphans"
			r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: true}, name)
			hostdir := filepath.Dir(globOne(t, filepath.Join(r.roots[0], name, "hostdir.*", "dropping.index.*")))
			planted := []string{
				filepath.Join(r.roots[0], name, "meta", "global.index.tmp.0"),
				filepath.Join(hostdir, "dropping.index.9.9.tmp.3"),
			}
			for _, p := range planted {
				if err := os.WriteFile(p, []byte("stranded"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			pass := r.m.Scrub
			if tool == "recover" {
				pass = r.m.Repair
			}
			rep, err := pass(serialCtx(r, 0), name)
			if err != nil {
				t.Fatalf("%s: %v", tool, err)
			}
			orphans := 0
			for _, p := range rep.Problems {
				if p.Kind == "orphan-tmp" {
					orphans++
					if !p.Repaired {
						t.Errorf("%s reported %s unswept", tool, p)
					}
				}
			}
			if orphans != len(planted) {
				t.Fatalf("%s reported %d orphan-tmp problems, want %d: %s", tool, orphans, len(planted), rep)
			}
			for _, p := range planted {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("%s left %s behind", tool, p)
				}
			}
			// The container itself is untouched and clean afterwards.
			rep, err = r.m.Scrub(serialCtx(r, 0), name)
			if err != nil {
				t.Fatalf("re-scrub: %v", err)
			}
			if rep.Found() != 0 {
				t.Fatalf("container dirty after %s sweep: %s", tool, rep)
			}
		})
	}
}

// TestScrubCleanContainer asserts the no-findings path: a freshly
// written checksummed container scrubs clean with every extent verified.
func TestScrubCleanContainer(t *testing.T) {
	const n, blocks, bs = 2, 2, int64(256)
	name := "clean"
	r := writeIntegrityFile(t, plfs.Options{IndexMode: plfs.Original, Checksum: true}, name)
	rep, err := r.m.Scrub(serialCtx(r, 0), name)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("clean container reported problems: %s", rep)
	}
	if rep.Droppings == 0 || rep.IndexesChecked == 0 || rep.ExtentsChecked == 0 {
		t.Fatalf("scrub checked nothing: %+v", rep)
	}
	if want := int64(n*blocks) * bs; rep.BytesVerified != want {
		t.Fatalf("verified %d bytes, want %d", rep.BytesVerified, want)
	}
}

// tearingBackend tears the first Append to a file whose path contains
// match: half the payload lands, then the write fails Torn.  This is the
// regression harness for the writeGlobalIndex double-write bug — a
// retried commit must start over on a fresh temp, never append to the
// half-written one.
type tearingBackend struct {
	plfs.Backend
	match string
	fired atomic.Bool
}

func (b *tearingBackend) Create(p string) (plfs.File, error) {
	f, err := b.Backend.Create(p)
	if err == nil && strings.Contains(p, b.match) && b.fired.CompareAndSwap(false, true) {
		return &tearingFile{File: f, path: p}, nil
	}
	return f, err
}

type tearingFile struct {
	plfs.File
	path string
	torn bool
}

func (f *tearingFile) Append(p payload.Payload) (int64, error) {
	if f.torn {
		return 0, &fault.Error{Op: fault.OpAppend, Path: f.path, Kind: fault.Transient}
	}
	f.torn = true
	f.File.Append(p.Slice(0, p.Len()/2))
	return 0, &fault.Error{Op: fault.OpAppend, Path: f.path, Kind: fault.Torn}
}

// TestGlobalIndexTornAppendRetries injects one torn append on the
// global-index commit path and asserts the retried publish produces a
// complete, correctly sized global index (not a doubled or half file).
func TestGlobalIndexTornAppendRetries(t *testing.T) {
	const n, blocks, bs = 2, 3, int64(256)
	name := "tornflat"
	r := newRig(t, 1, plfs.Options{IndexMode: plfs.IndexFlatten, NumSubdirs: 2, Retry: fastRetry(3)})
	tb := &tearingBackend{Backend: r.ctx(0, nil).Vols[0], match: "global.index" + ".tmp."}
	runRanks(t, r, n, func(ctx plfs.Ctx, rank int) {
		ctx.Vols = []plfs.Backend{tb}
		writeN1(t, r.m, ctx, rank, n, blocks, bs, name)
	})
	if !tb.fired.Load() {
		t.Fatal("torn append never fired: the regression is not exercised")
	}
	rd, err := r.m.OpenReader(serialCtx(r, 0), name)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rd.Close()
	if !rd.Stats.UsedGlobal {
		t.Fatal("reader did not use the global index")
	}
	if got, want := rd.Index().RawEntries(), n*blocks; got != want {
		t.Fatalf("global index has %d entries, want %d", got, want)
	}
	verifyN1(t, rd, n, blocks, bs)
}
