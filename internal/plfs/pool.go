package plfs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines, returning when all calls have finished.  Work is handed out
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

// defaultWorkers resolves a worker-count option: 0 means "one per
// available CPU", anything else is clamped to at least 1.
func defaultWorkers(opt int) int {
	if opt == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if opt < 1 {
		return 1
	}
	return opt
}

// ConcurrentIO is an optional marker interface for Backends whose handles
// tolerate concurrent use from multiple goroutines (positional ReadAt on
// distinct or shared handles, concurrent Open/Close).  The real-OS backend
// qualifies (pread is thread-safe); the simulated backend does not — its
// discrete-event engine requires all blocking calls on the rank's own
// goroutine — so the reader's I/O fan-out degrades to serial there
// automatically.  It is asked of the leaf: interceptors are required to
// be goroutine-safe, so fan-out safety is the store's own property.
type ConcurrentIO interface {
	ConcurrentIO() bool
}

// backendsConcurrent reports whether every volume advertises
// goroutine-safe I/O.
func backendsConcurrent(vols []Backend) bool {
	for _, v := range vols {
		c, ok := Leaf(v).(ConcurrentIO)
		if !ok || !c.ConcurrentIO() {
			return false
		}
	}
	return len(vols) > 0
}
