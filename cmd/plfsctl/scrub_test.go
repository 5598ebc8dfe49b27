package main_test

// End-to-end exercise of the plfsctl integrity commands as a user runs
// them: build the binary, write checksummed containers through the
// library, damage them, and check the exit-code discipline — 0 when
// nothing found remains, 1 with the extent named after a bit flip, 2 on
// usage errors — and that all four verbs give one verdict.

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"plfs/internal/localcomm"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/plfs"
)

// buildPlfsctl compiles the binary once per test run.
func buildPlfsctl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "plfsctl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeContainer creates a small checksummed N-1 container under root.
func writeContainer(t *testing.T, root, name string) {
	t.Helper()
	const n, blocks, bs = 2, 2, int64(256)
	m := plfs.NewMount([]string{root}, plfs.Options{IndexMode: plfs.Original, Checksum: true})
	comms := localcomm.New(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := plfs.Ctx{
				Vols: []plfs.Backend{osfs.New()}, Rank: rank, Host: rank,
				HostLeader: true, Comm: comms[rank],
			}
			w, err := m.Create(ctx, name)
			if err != nil {
				t.Errorf("rank %d create: %v", rank, err)
				return
			}
			for k := 0; k < blocks; k++ {
				off := int64(k*n+rank) * bs
				if err := w.Write(off, payload.Synthetic(uint64(rank+1), off, bs)); err != nil {
					t.Errorf("rank %d write: %v", rank, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
		}(i)
	}
	wg.Wait()
}

// shortenIndex rewrites the index dropping paired with data to list only
// the last of the entries its recovery footer holds: the index still
// decodes (raw 40-byte entries, a format readers accept), but it no
// longer covers the data.  The footer is the v2 layout a checksummed
// writer appends: [entries][crcs][crc][0][uint64 n][magic].
func shortenIndex(t *testing.T, data string) {
	t.Helper()
	buf, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint64(buf[len(buf)-16:]))
	if n < 2 {
		t.Fatalf("%s: footer lists %d entries, need 2+", data, n)
	}
	last := len(buf) - 24 - n*4 - plfs.EntryBytes
	index := strings.Replace(data, "dropping.data.", "dropping.index.", 1)
	if err := os.WriteFile(index, buf[last:last+plfs.EntryBytes], 0o644); err != nil {
		t.Fatal(err)
	}
}

// runCtl executes the binary and returns combined output and exit code.
func runCtl(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	return "", -1
}

func TestScrubCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildPlfsctl(t)
	root := t.TempDir()
	writeContainer(t, root, "victim")

	// Clean container: exit 0, human-readable OK.
	out, code := runCtl(t, bin, "scrub", "victim", "-root", root)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Fatalf("clean scrub: exit %d\n%s", code, out)
	}

	// Usage error (no -root): exit 2.
	if _, code := runCtl(t, bin, "scrub", "victim"); code != 2 {
		t.Fatalf("usage error: exit %d, want 2", code)
	}

	// Bit-flip one data byte: exit 1 and the finding names the extent.
	matches, err := filepath.Glob(filepath.Join(root, "victim", "hostdir.*", "dropping.data.*"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no data droppings: %v", err)
	}
	buf, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if err := os.WriteFile(matches[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runCtl(t, bin, "scrub", "victim", "-root", root)
	if code != 1 {
		t.Fatalf("corrupt scrub: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "checksum-data") || !strings.Contains(out, "extent [") {
		t.Fatalf("corrupt scrub did not name the extent:\n%s", out)
	}

	// Same walk in JSON: machine-readable problems, still exit 1.
	out, code = runCtl(t, bin, "scrub", "victim", "-root", root, "-json")
	if code != 1 {
		t.Fatalf("json scrub: exit %d, want 1\n%s", code, out)
	}
	var rep struct {
		Problems []struct {
			Kind   string `json:"kind"`
			Extent string `json:"extent"`
		} `json:"problems"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output: %v\n%s", err, out)
	}
	found := false
	for _, p := range rep.Problems {
		if p.Kind == "checksum-data" && p.Extent != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("json report misses the checksum-data finding:\n%s", out)
	}

	// Every verb gives the flipped byte one verdict: nothing can fix it,
	// so check (scrub), recover and scrub -repair (Repair) exit 1 too,
	// and the repair names it unrepairable.
	for _, args := range [][]string{{"check"}, {"recover"}, {"scrub", "-repair"}} {
		out, code := runCtl(t, bin, append([]string{args[0], "victim", "-root", root}, args[1:]...)...)
		if code != 1 {
			t.Fatalf("%v on a flipped byte: exit %d, want 1\n%s", args, code, out)
		}
		if len(args) > 1 && !strings.Contains(out, "UNREPAIRABLE: checksum-data") {
			t.Fatalf("scrub -repair did not name checksum-data unrepairable:\n%s", out)
		}
	}
	// A missing container is an operational error, exit 2.
	if _, code := runCtl(t, bin, "scrub", "no-such-file", "-root", root); code != 2 {
		t.Fatalf("missing container: exit %d, want 2", code)
	}

	// An index that decodes but lists fewer entries than its recovery
	// footer: scrub and check exit 1; recover and scrub -repair rebuild
	// it from the footer and exit 0, after which scrub is clean.
	writeContainer(t, root, "short")
	datas, err := filepath.Glob(filepath.Join(root, "short", "hostdir.*", "dropping.data.*"))
	if err != nil || len(datas) == 0 {
		t.Fatalf("no data droppings: %v", err)
	}
	for _, fix := range [][]string{{"scrub", "-repair"}, {"recover"}} {
		shortenIndex(t, datas[0])
		for _, verb := range []string{"scrub", "check"} {
			out, code := runCtl(t, bin, verb, "short", "-root", root)
			if code != 1 || !strings.Contains(out, "index-footer-mismatch") {
				t.Fatalf("%s on a short index: exit %d, want 1 naming index-footer-mismatch\n%s", verb, code, out)
			}
		}
		out, code := runCtl(t, bin, append([]string{fix[0], "short", "-root", root}, fix[1:]...)...)
		if code != 0 || !strings.Contains(out, "REPAIRED: ") {
			t.Fatalf("%v on a short index: exit %d, want 0 with the rebuild\n%s", fix, code, out)
		}
		if out, code := runCtl(t, bin, "scrub", "short", "-root", root); code != 0 {
			t.Fatalf("scrub after %v: exit %d, want 0\n%s", fix, code, out)
		}
	}
}
