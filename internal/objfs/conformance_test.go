package objfs_test

import (
	"testing"

	"plfs/internal/objfs"
	"plfs/internal/plfs"
	"plfs/internal/plfs/backendtest"
)

// TestBackendConformance runs the DESIGN.md §16 contract suite over an
// engineless object store, bare and behind each interposer stack: same
// table as osfs and simfs, proving the flat-namespace emulation
// (markers, prefix scans, copy+delete renames) is indistinguishable
// through the Backend interface.
func TestBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T, fn func(plfs.Backend, string)) {
		s := objfs.New(objfs.DefaultConfig())
		fn(objfs.Vol(s), s.Roots(1)[0])
	})
}
