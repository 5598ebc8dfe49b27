package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"plfs/internal/plfs"
)

// mdLink matches inline markdown links: [text](target).  Images and
// reference-style links are out of scope — the repo docs use inline
// links only.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// sectionRef matches the "§N" shorthand the docs use for DESIGN.md's
// numbered sections ("DESIGN.md §16", "(§9)").  Paper sections are
// roman ("§IV.C") and deliberately unmatched.
var sectionRef = regexp.MustCompile(`§(\d+)`)

// pkgRef matches internal/... package and file references in prose and
// tables ("internal/objfs", "internal/plfs/backend.go").
var pkgRef = regexp.MustCompile(`internal/[a-zA-Z0-9_.-]+(?:/[a-zA-Z0-9_.-]+)*`)

// TestDocLinks verifies that every relative link in the top-level docs
// points at a file or directory that exists, so the cross-references
// between README, DESIGN, and EXPERIMENTS cannot silently rot.
func TestDocLinks(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			// Drop any #fragment; a bare fragment links within the file.
			path, _, _ := strings.Cut(target, "#")
			if path == "" {
				continue
			}
			if _, err := os.Stat(filepath.Clean(path)); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, target, err)
			}
		}
	}
}

// TestDocSectionAnchors verifies that every "§N" reference in the docs
// resolves to a numbered "## N. " section that actually exists in
// DESIGN.md — renumbering a section without chasing its references is
// how anchors rot.
func TestDocSectionAnchors(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	header := regexp.MustCompile(`(?m)^## (\d+)\. `)
	for _, m := range header.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) < 16 {
		t.Fatalf("only %d numbered DESIGN.md sections found; header format changed?", len(sections))
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range sectionRef.FindAllStringSubmatch(string(data), -1) {
			if !sections[m[1]] {
				t.Errorf("%s: reference to §%s, but DESIGN.md has no section %s", doc, m[1], m[1])
			}
		}
	}
}

// TestDocPackageRefs verifies that every internal/... package or file
// the docs name exists in the tree.
func TestDocPackageRefs(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, ref := range pkgRef.FindAllString(string(data), -1) {
			// A ref at the end of a sentence drags its period along;
			// trim trailing dots only when the literal path is absent.
			if _, err := os.Stat(ref); err == nil {
				continue
			}
			trimmed := strings.TrimRight(ref, ".")
			if _, err := os.Stat(trimmed); err != nil {
				t.Errorf("%s: reference to %q, which does not exist", doc, ref)
			}
		}
	}
}

// TestReadmeOptionsTable verifies that README's plfs.Options table has a
// row for every field of plfs.Options and no row for anything else: a
// field added without a row, or a row left behind by a deleted field,
// fails here.  A row may name several fields ("`A` / `B`").
func TestReadmeOptionsTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "`plfs.Options` controls a mount's behavior")
	if !ok {
		t.Fatal("README.md: no plfs.Options table")
	}
	rows := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		first, _, _ := strings.Cut(line[1:], "|")
		for _, m := range optionName.FindAllStringSubmatch(first, -1) {
			rows[m[1]] = true
		}
	}
	typ := reflect.TypeOf(plfs.Options{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if !rows[name] {
			t.Errorf("README.md: plfs.Options.%s has no row in the Options table", name)
		}
	}
	for name := range rows {
		if !fields[name] {
			t.Errorf("README.md: the Options table has a row for %s, which plfs.Options does not have", name)
		}
	}
}

// optionName matches one backticked name in the first column of an
// Options table row.
var optionName = regexp.MustCompile("`(\\w+)`")
