package mpi

import (
	"plfs/internal/comm"
	"plfs/internal/sim"
)

// Comm is a communicator over a subset of world ranks.  It implements
// comm.Comm.  members holds world ranks in communicator-rank order;
// me is this process's communicator rank.
type Comm struct {
	r       *Rank
	id      int
	members []int
	me      int
	seq     int // collective sequence number (advances in lockstep)
}

var _ comm.Comm = (*Comm)(nil)

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// tag builds a collision-free message tag from (comm, collective instance,
// round).  Collectives advance seq in lockstep on every member, so a tag
// uniquely identifies one round of one collective on one communicator.
// Field widths: 16 bits of round (Alltoall uses one round per shift),
// 24 bits of sequence, the rest comm id; offset clear of user tags.
func (c *Comm) tag(round int) int {
	return (c.id<<40 | c.seq<<16 | round) + 1<<62
}

func (c *Comm) send(dst, round int, nbytes int64, val any) {
	c.r.Send(c.members[dst], c.tag(round), nbytes, val)
}

func (c *Comm) recv(src, round int) sim.Msg {
	return c.r.Recv(c.members[src], c.tag(round))
}

// Barrier uses the dissemination algorithm: ceil(log2 n) rounds of
// shifted pairwise notifications.  The rounds run in engine context: the
// rank suspends once on entry and is resumed inside the event in which
// its last round completes.  Each round makes the engine calls that Send
// and Recv would make from the rank, in the same order — the latency, the
// notification to dst, then src's notification taken or awaited — so
// every event keeps its time and sequence number, and the rank parks
// once per barrier instead of once or twice per round.
func (c *Comm) Barrier() {
	if len(c.members) > 1 {
		r := c.r
		r.bar, r.barRound = c, 0
		r.w.eng.After(r.w.cfg.Latency, r.barStep)
		r.p.Suspend()
	}
	c.seq++
}

// barrierStep runs a round of the barrier r is suspended in, in engine
// context: once the round's latency has passed, when it notifies dst and
// takes src's notification or awaits it, and again when an awaited one
// arrives.  After a round ends it starts the next, or resumes the rank
// after the last.
func (r *Rank) barrierStep() {
	c := r.bar
	n := len(c.members)
	if !r.barAwait {
		k, tag := 1<<r.barRound, c.tag(int(r.barRound))
		w := r.w
		w.notes[c.members[(c.me+k)%n]].put(w.eng, note{r.rank, tag})
		if !w.notes[r.rank].take(note{c.members[(c.me-k+n)%n], tag}, r.barStep) {
			r.barAwait = true
			return
		}
	}
	r.barAwait = false
	if r.barRound++; 1<<r.barRound < n {
		r.w.eng.After(r.w.cfg.Latency, r.barStep)
		return
	}
	r.bar = nil
	r.p.Resume()
}

// note is a barrier notification: its sender's world rank and its tag.
type note struct{ src, tag int }

// notes holds a world rank's barrier notifications.  They carry no bytes
// and no value, so they need none of a Mailbox's maps: a rank waits on
// one at a time and the few that arrive early (from partners in later
// rounds, or already in the next barrier) sit in a short slice.
type notes struct {
	early []note // arrived before they were awaited
	want  note   // the note fn waits on
	fn    func() // the round awaiting want, or nil
}

// put delivers m.  If it is the awaited note it schedules the waiting
// round at the current instant, where Mailbox.Put would wake a blocked
// receiver.
func (ns *notes) put(e *sim.Engine, m note) {
	if ns.fn != nil && ns.want == m {
		fn := ns.fn
		ns.fn = nil
		e.After(0, fn)
		return
	}
	ns.early = append(ns.early, m)
}

// take removes m and reports true if it has arrived; otherwise fn waits
// for it and take reports false.
func (ns *notes) take(m note, fn func()) bool {
	for i, x := range ns.early {
		if x == m {
			last := len(ns.early) - 1
			ns.early[i] = ns.early[last]
			ns.early = ns.early[:last]
			return true
		}
	}
	ns.want, ns.fn = m, fn
	return false
}

// Bcast distributes root's v along a binomial tree.
func (c *Comm) Bcast(root int, nbytes int64, v any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	if n == 1 {
		return v
	}
	rel := (c.me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.me - mask + n) % n
			v = c.recv(src, 0).Val
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (c.me + mask) % n
			c.send(dst, 0, nbytes, v)
		}
		mask >>= 1
	}
	return v
}

// gatherTree runs a binomial gather of per-rank values toward root and
// returns the full slice (indexed by comm rank) at root, nil elsewhere.
// Interior nodes forward their accumulated subtree, so message sizes grow
// up the tree exactly as in MPICH's binomial gather.  A subtree is a run
// of contiguous relative ranks and children report in rank order, so acc
// is a slice: acc[i] is relative rank rel+i's value.
func (c *Comm) gatherTree(root int, nbytes int64, v any) []any {
	defer func() { c.seq++ }()
	n := len(c.members)
	rel := (c.me - root + n) % n
	span := n - rel // the subtree's size: rel's lowest set bit, or all
	if low := rel & -rel; rel != 0 && low < span {
		span = low
	}
	acc := append(make([]any, 0, span), v)
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			if rel+mask < n {
				src := (c.me + mask) % n
				acc = append(acc, c.recv(src, 0).Val.([]any)...)
			}
		} else {
			dst := (c.me - mask + n) % n
			c.send(dst, 0, int64(len(acc))*nbytes, acc)
			return nil
		}
		mask <<= 1
	}
	if root == 0 {
		return acc
	}
	out := make([]any, n)
	for i, val := range acc {
		out[(i+root)%n] = val
	}
	return out
}

// Gather collects each rank's v at root.
func (c *Comm) Gather(root int, nbytes int64, v any) []any {
	return c.gatherTree(root, nbytes, v)
}

// Allgather collects every rank's v onto every rank (gather + bcast).
func (c *Comm) Allgather(nbytes int64, v any) []any {
	all := c.gatherTree(0, nbytes, v)
	got := c.Bcast(0, nbytes*int64(len(c.members)), all)
	return got.([]any)
}

// Scatter distributes vs (significant at root) down a binomial tree; each
// rank returns vs[commRank].
func (c *Comm) Scatter(root int, nbytesEach int64, vs []any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	if n == 1 {
		return vs[0]
	}
	rel := (c.me - root + n) % n
	// blocks holds the values for relative ranks [rel, rel+len(blocks)).
	var blocks []any
	if rel == 0 {
		blocks = vs
		if root != 0 {
			blocks = make([]any, n)
			for i, v := range vs {
				blocks[(i-root+n)%n] = v
			}
		}
	}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.me - mask + n) % n
			blocks = c.recv(src, 0).Val.([]any)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			// Hand off the upper half of our block range.
			sub := blocks[mask:min(2*mask, len(blocks))]
			dst := (c.me + mask) % n
			c.send(dst, 0, int64(len(sub))*nbytesEach, sub)
		}
		mask >>= 1
	}
	return blocks[0]
}

// Reduce combines every rank's value at root with fn (associative,
// commutative).  Non-roots return nil.
func (c *Comm) Reduce(root int, nbytes int64, v any, fn func(a, b any) any) any {
	defer func() { c.seq++ }()
	n := len(c.members)
	rel := (c.me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			if rel+mask < n {
				src := (c.me + mask) % n
				m := c.recv(src, 0)
				v = fn(v, m.Val)
			}
		} else {
			dst := (c.me - mask + n) % n
			c.send(dst, 0, nbytes, v)
			return nil
		}
		mask <<= 1
	}
	return v
}

// Allreduce combines every rank's value on every rank.
func (c *Comm) Allreduce(nbytes int64, v any, fn func(a, b any) any) any {
	out := c.Reduce(0, nbytes, v, fn)
	return c.Bcast(0, nbytes, out)
}

// Alltoall performs a pairwise exchange: every rank sends vs[i] to rank i
// and returns the values received, indexed by source.  nbytes[i] is the
// size sent to rank i.  It is O(n) rounds, so use it on small
// communicators (e.g. group leaders).
func (c *Comm) Alltoall(nbytes []int64, vs []any) []any {
	defer func() { c.seq++ }()
	n := len(c.members)
	out := make([]any, n)
	out[c.me] = vs[c.me]
	for shift := 1; shift < n; shift++ {
		dst := (c.me + shift) % n
		src := (c.me - shift + n) % n
		c.send(dst, shift, nbytes[dst], vs[dst])
		out[src] = c.recv(src, shift).Val
	}
	return out
}

type splitInfo struct {
	groups map[int][]int // parent comm rank -> member list
	colors []int
	ids    map[int]int // color -> new comm id
}

// Split partitions the communicator by color, ordered by (key, rank).
func (c *Comm) Split(color, key int) comm.Comm {
	vals := c.Gather(0, 16, [2]int{color, key})
	var info splitInfo
	if c.me == 0 {
		n := len(c.members)
		colors := make([]int, n)
		keys := make([]int, n)
		for i, v := range vals {
			ck := v.([2]int)
			colors[i], keys[i] = ck[0], ck[1]
		}
		groups := comm.SplitGroups(colors, keys)
		ids := make(map[int]int)
		// Assign comm ids in deterministic (first-member) order.
		for i := 0; i < n; i++ {
			cg := colors[i]
			if _, ok := ids[cg]; !ok {
				c.r.w.nextCommID++
				ids[cg] = c.r.w.nextCommID
			}
		}
		info = splitInfo{groups: groups, colors: colors, ids: ids}
	}
	got := c.Bcast(0, 16*int64(len(c.members)), info).(splitInfo)
	members := got.groups[c.me] // parent comm ranks
	world := make([]int, len(members))
	me := 0
	for i, pr := range members {
		world[i] = c.members[pr]
		if pr == c.me {
			me = i
		}
	}
	return &Comm{r: c.r, id: got.ids[got.colors[c.me]], members: world, me: me}
}
