package plfs_test

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"testing"

	"plfs/internal/fault"
	"plfs/internal/objfs"
	"plfs/internal/osfs"
	"plfs/internal/payload"
	"plfs/internal/pfs"
	"plfs/internal/plfs"
)

// TestRetryableClassifiesStoreVerdicts pins the retry classification of
// every store sentinel, and of the same verdicts as osfs reports them
// from real syscalls: a namespace or handle verdict is permanent on
// every store (a retry would only sleep through the backoff), while an
// injected transient, an object-store PUT conflict and an unclassified
// EIO-shaped error are retried.
func TestRetryableClassifiesStoreVerdicts(t *testing.T) {
	dir := t.TempDir()
	fs := osfs.New()
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full")
	if err := os.MkdirAll(filepath.Join(full, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	closed, err := fs.OpenRead(file)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	_, closedErr := closed.ReadAt(0, 1)
	_, openDirErr := fs.OpenRead(dir)
	_, isDirReadErr := func() (payload.List, error) {
		f, err := fs.OpenRead(dir)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return f.ReadAt(0, 1)
	}()
	ro, err := fs.OpenRead(file)
	if err != nil {
		t.Fatal(err)
	}
	roErr := ro.WriteAt(0, payload.FromBytes([]byte("y")))
	ro.Close()

	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"pfs.ErrExist", pfs.ErrExist, false},
		{"pfs.ErrNotExist", pfs.ErrNotExist, false},
		{"pfs.ErrIsDir", pfs.ErrIsDir, false},
		{"pfs.ErrNotDir", pfs.ErrNotDir, false},
		{"pfs.ErrNotEmpty", pfs.ErrNotEmpty, false},
		{"pfs.ErrClosed", pfs.ErrClosed, false},
		{"pfs.ErrReadOnly", pfs.ErrReadOnly, false},
		{"objfs.ErrExist", objfs.ErrExist, false},
		{"objfs.ErrNotExist", objfs.ErrNotExist, false},
		{"objfs.ErrNotEmpty", objfs.ErrNotEmpty, false},
		{"objfs.ErrIsDir", objfs.ErrIsDir, false},
		{"objfs.ErrNotDir", objfs.ErrNotDir, false},
		{"objfs.ErrInvalid", objfs.ErrInvalid, false},
		{"osfs ENOTDIR", fs.Mkdir(filepath.Join(file, "sub")), false},
		{"osfs ENOTEMPTY", fs.Remove(full), false},
		{"osfs EEXIST", fs.Mkdir(full), false},
		{"osfs ENOENT", fs.Remove(filepath.Join(dir, "missing")), false},
		{"osfs EISDIR", errors.Join(openDirErr, isDirReadErr), false},
		{"osfs closed handle", closedErr, false},
		{"osfs read-only handle", roErr, false},
		{"wrapped pfs.ErrNotDir", fmt.Errorf("plfs: mkdir /a: %w", pfs.ErrNotDir), false},
		{"fault transient", &fault.Error{Op: fault.OpRead, Path: "/p", Kind: fault.Transient}, true},
		{"fault torn", &fault.Error{Op: fault.OpAppend, Path: "/p", Kind: fault.Torn}, false},
		{"fault lost", &fault.Error{Op: fault.OpOpen, Path: "/p", Kind: fault.Lost}, false},
		{"objfs put conflict", &objfs.ConflictError{Key: "/k", Want: 1, Have: 2}, true},
		{"unclassified EIO", errors.New("input/output error"), true},
	} {
		if tc.err == nil {
			t.Errorf("%s: the call meant to produce it succeeded", tc.name)
			continue
		}
		if got := plfs.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s: %v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
	if !errors.Is(pfs.ErrNotEmpty, iofs.ErrExist) || !errors.Is(objfs.ErrNotEmpty, iofs.ErrExist) {
		t.Error("a non-empty directory must read as ErrExist on every store, as osfs's ENOTEMPTY does")
	}
}
