package plfs

import (
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines, returning when all calls have finished.  It carries exactly
// the read path's two pure-CPU steps — index-dropping decode and the
// build's per-shard key sort — never backend I/O.  Work is handed out
// by an atomic counter, so uneven item costs balance themselves.  With
// workers <= 1 (or when there is nothing to share) it degenerates to a
// plain loop on the caller's goroutine — the serial baseline costs no
// synchronization at all.
//
// fn must be safe to call concurrently with itself for distinct i; panics
// inside fn propagate to the caller like in any goroutine (they crash).
func parallelFor(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ConcurrentIO is an optional marker interface for Backends whose handles
// tolerate concurrent use from multiple goroutines.  No PLFS path asks for
// it — every backend call runs on the rank's own goroutine — and it is
// kept only because the benchmark module's traced osfs wrapper forwards
// it.
type ConcurrentIO interface {
	ConcurrentIO() bool
}
