package osfs_test

import (
	"testing"

	"plfs/internal/osfs"
	"plfs/internal/plfs"
	"plfs/internal/plfs/backendtest"
)

// TestBackendConformance runs the DESIGN.md §16 contract suite over the
// real filesystem backend, bare and behind each interposer stack.
func TestBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T, fn func(plfs.Backend, string)) {
		fn(osfs.New(), t.TempDir())
	})
}
