package sim

// Msg is a tagged message delivered through a Mailbox.  Payload values are
// shared by reference; the simulated transfer cost is modeled separately
// by the network layer, so sharing is safe and keeps memory bounded even
// when tens of thousands of ranks exchange large logical volumes.
type Msg struct {
	Src   int
	Tag   int
	Bytes int64
	Val   any
}

type mboxKey struct {
	src int
	tag int
}

// Mailbox is a per-receiver store of tagged messages with blocking receive.
// It implements MPI-style (source, tag) matching; each (source, tag) pair
// delivers in FIFO order.
type Mailbox struct {
	msgs    map[mboxKey][]Msg
	waiting map[mboxKey]receiver
}

// receiver is a process blocked in Get; Put swaps p for the message.
type receiver struct {
	p   *Proc
	msg Msg
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{
		msgs:    make(map[mboxKey][]Msg),
		waiting: make(map[mboxKey]receiver),
	}
}

// Put delivers m, waking a matching blocked receiver if one exists.
func (b *Mailbox) Put(m Msg) {
	k := mboxKey{m.Src, m.Tag}
	if r := b.waiting[k]; r.p != nil {
		b.waiting[k] = receiver{msg: m}
		r.p.Wake()
		return
	}
	b.msgs[k] = append(b.msgs[k], m)
}

// Get blocks p until a message from src with the given tag is available
// and returns it.  At most one process may wait on a given (src, tag) pair
// at a time.
func (b *Mailbox) Get(p *Proc, src, tag int) Msg {
	k := mboxKey{src, tag}
	if q := b.msgs[k]; len(q) > 0 {
		m := q[0]
		if len(q) == 1 {
			delete(b.msgs, k)
		} else {
			b.msgs[k] = q[1:]
		}
		return m
	}
	if _, dup := b.waiting[k]; dup {
		panic("sim: concurrent Mailbox.Get on same (src, tag)")
	}
	b.waiting[k] = receiver{p: p}
	p.park()
	m := b.waiting[k].msg
	delete(b.waiting, k)
	return m
}

// Pending reports the number of queued (undelivered) messages.
func (b *Mailbox) Pending() int {
	n := 0
	for _, q := range b.msgs {
		n += len(q)
	}
	return n
}
