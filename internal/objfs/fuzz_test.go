package objfs

import (
	"errors"
	iofs "io/fs"
	"path"
	"strings"
	"testing"
)

// TestNamesAreFilesOrDirs: a name is a file or a directory, never both,
// and has one spelling.  osfs and simfs refuse the same creates.
func TestNamesAreFilesOrDirs(t *testing.T) {
	b := Vol(New(DefaultConfig()))
	for _, p := range []string{"/d/x", "/d/sub/f"} {
		f, err := b.Create(p)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		f.Close()
	}
	for _, c := range []struct {
		path string
		want error
	}{
		{"/d/x/y", ErrNotDir},   // under a file
		{"/d/x/y/z", ErrNotDir}, // deeper under a file
		{"/d/sub", ErrExist},    // over a directory implied by a key below it
		{"/d//z", ErrInvalid},
		{"/d/w/", ErrInvalid},
		{"/d/./w", ErrInvalid},
	} {
		if _, err := b.Create(c.path); !errors.Is(err, c.want) {
			t.Errorf("create %s: err %v, want %v", c.path, err, c.want)
		}
	}
	if err := b.Mkdir("/d/x/m"); !errors.Is(err, ErrNotDir) {
		t.Errorf("mkdir under a file: err %v, want %v", err, ErrNotDir)
	}
	if !errors.Is(ErrInvalid, iofs.ErrInvalid) {
		t.Error("ErrInvalid does not wrap fs.ErrInvalid")
	}
}

// FuzzReadDir: after any sequence of creates, mkdirs and removes, a
// listing names every entry once, by a non-empty name without a slash,
// in sorted order.  The script is words of a verb — c(reate), m(kdir),
// r(emove) — and the path that follows it.
func FuzzReadDir(f *testing.F) {
	for _, s := range []string{
		"c/d/x c/d/x/y", // a create under a file
		"c/d//z",        // an empty path segment
		"c/d/w/",        // a trailing slash
		"c/d/a/b c/d/a", // a file over an implied directory
		"m/d/a c/d/a/b r/d/a/b r/d/a c/d/a",
		"m/d/x m/d/x/y c/d/x/y/z m/d/x/y/z/w",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		b := Vol(New(DefaultConfig()))
		dirs := map[string]bool{"/d": true}
		for _, w := range strings.Fields(script) {
			p := w[1:]
			switch w[0] {
			case 'c':
				if fl, err := b.Create(p); err == nil {
					fl.Close()
				}
			case 'm':
				b.Mkdir(p)
			case 'r':
				b.Remove(p)
			}
			for d := path.Dir(p); d != "/" && d != "."; d = path.Dir(d) {
				dirs[d] = true
			}
		}
		for d := range dirs {
			ents, err := b.ReadDir(d)
			if err != nil {
				continue
			}
			for i, e := range ents {
				if e.Name == "" || strings.Contains(e.Name, "/") {
					t.Fatalf("after %q, ReadDir(%s) names %q", script, d, e.Name)
				}
				if i > 0 && ents[i-1].Name >= e.Name {
					t.Fatalf("after %q, ReadDir(%s) lists %q then %q", script, d, ents[i-1].Name, e.Name)
				}
			}
		}
	})
}
