//go:build go1.23

// The constraint raises this file's language version for iter (Go 1.23);
// go.mod stays at 1.22 so that bench/, which replaces-in this module,
// needs no go.mod update.

package sim

import "iter"

// start makes body the process's coroutine: iter.Pull switches between
// engine and process directly, with no channel and no scheduler pass.
func (p *Proc) start(body func()) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body()
	})
}
