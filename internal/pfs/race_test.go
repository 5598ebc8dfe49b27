//go:build race

package pfs

// raceEnabled reports whether the race detector is on.  Its runtime
// allocates on its own now and then, so allocation counts are exact only
// without it.
const raceEnabled = true
