// Package mpi implements an MPI-like runtime on the discrete-event
// simulator: ranks are simulated processes, point-to-point messages are
// tag-matched and pay modeled interconnect costs, and the collectives use
// the standard binomial-tree / dissemination algorithms so that their
// simulated cost scales like a real MPI's (O(log N) rounds).
//
// It implements comm.Comm, so the PLFS middleware and the MPI-IO layer run
// unchanged on top of it.  The paper's two index-aggregation techniques
// are exactly such collective programs; this package is what makes their
// simulated open times meaningful.
package mpi

import (
	"fmt"
	"time"

	"plfs/internal/sim"
)

// NetConfig models the cluster's high-speed interconnect — the resource
// the paper notes is "largely idle during I/O phases" and that PLFS's
// collective optimizations exploit.
type NetConfig struct {
	NICBW   float64       // per-node injection/ejection bandwidth, bytes/sec
	Latency time.Duration // per-message latency
	MemBW   float64       // same-node transfer bandwidth, bytes/sec
}

// DefaultNet approximates a QDR InfiniBand / Gemini class network.
func DefaultNet() NetConfig {
	return NetConfig{NICBW: 3e9, Latency: 2 * time.Microsecond, MemBW: 6e9}
}

// World is a set of ranks placed onto compute nodes.
type World struct {
	eng          *sim.Engine
	cfg          NetConfig
	n            int
	procsPerNode int
	nics         []*sim.PSLink
	boxes        []sim.Mailbox // per world rank, all in one allocation
	notes        []notes       // barrier notifications, per world rank (comm.go)
	nextCommID   int
	allMembers   []int // shared world-rank list, built once
}

// NewWorld creates a world of n ranks packed procsPerNode to a node.
func NewWorld(eng *sim.Engine, n, procsPerNode int, cfg NetConfig) *World {
	if n < 1 || procsPerNode < 1 {
		panic("mpi: invalid world size")
	}
	w := &World{eng: eng, cfg: cfg, n: n, procsPerNode: procsPerNode, nextCommID: 1}
	// Every Send and every barrier round waits out the latency first.
	eng.Lane(cfg.Latency)
	nodes := (n + procsPerNode - 1) / procsPerNode
	for i := 0; i < nodes; i++ {
		w.nics = append(w.nics, sim.NewPSLink(eng, fmt.Sprintf("nic%d", i), cfg.NICBW))
	}
	w.boxes = make([]sim.Mailbox, n)
	w.notes = make([]notes, n)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// NodeOf returns the compute node hosting a rank.
func (w *World) NodeOf(rank int) int { return rank / w.procsPerNode }

// Nodes returns the number of compute nodes in use.
func (w *World) Nodes() int { return len(w.nics) }

// Rank is one MPI process.
type Rank struct {
	w    *World
	rank int
	p    *sim.Proc
	wg   sim.WaitGroup // Send's NIC flows; Done is bound once in done
	done func()

	// The barrier the rank is suspended in (comm.go), its round, whether
	// the round's notification is awaited, and barrierStep bound once.
	bar      *Comm
	barRound int32
	barAwait bool
	barStep  func()
}

// Spawn starts fn as rank's process; typically called for every rank
// before eng.Run.
func (w *World) Spawn(rank int, fn func(*Rank)) {
	w.eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
		r := &Rank{w: w, rank: rank, p: p}
		r.done = r.wg.Done
		r.barStep = r.barrierStep
		fn(r)
	})
}

// SpawnAll starts fn on every rank.
func (w *World) SpawnAll(fn func(*Rank)) {
	for r := 0; r < w.n; r++ {
		w.Spawn(r, fn)
	}
}

// Rank returns this process's world rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.n }

// Node returns the compute node this rank runs on.
func (r *Rank) Node() int { return r.w.NodeOf(r.rank) }

// Proc returns the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.p }

// World returns the world.
func (r *Rank) World() *World { return r.w }

// Send transmits a message to dst.  The call blocks for the modeled
// transfer time (eager protocol: it does not wait for the receiver).
// val is shared by reference; nbytes drives the cost model.
func (r *Rank) Send(dst, tag int, nbytes int64, val any) {
	w := r.w
	if dst < 0 || dst >= w.n {
		panic("mpi: send to invalid rank")
	}
	r.p.Sleep(w.cfg.Latency)
	if nbytes > 0 {
		sn, dn := w.NodeOf(r.rank), w.NodeOf(dst)
		if sn == dn {
			if w.cfg.MemBW > 0 {
				r.p.Sleep(time.Duration(float64(nbytes) / w.cfg.MemBW * 1e9))
			}
		} else {
			r.wg.Add(2)
			w.nics[sn].TransferAsync(nbytes, r.done)
			w.nics[dn].TransferAsync(nbytes, r.done)
			r.wg.Wait(r.p)
		}
	}
	w.boxes[dst].Put(sim.Msg{Src: r.rank, Tag: tag, Bytes: nbytes, Val: val})
}

// Recv blocks until a message with the given source and tag arrives.
func (r *Rank) Recv(src, tag int) sim.Msg {
	return r.w.boxes[r.rank].Get(r.p, src, tag)
}

// Comm returns the world communicator for this rank (comm id 0).  The
// member list is shared across ranks (it is immutable), so building a
// communicator is O(1).
func (r *Rank) Comm() *Comm {
	if r.w.allMembers == nil {
		members := make([]int, r.w.n)
		for i := range members {
			members[i] = i
		}
		r.w.allMembers = members
	}
	return &Comm{r: r, id: 0, members: r.w.allMembers, me: r.rank}
}
