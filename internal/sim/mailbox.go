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
//
// Collectives give every round a fresh tag, so nearly every key carries
// one message: it is held by value in first, and only the later messages
// of a key that is sent to again before it is received queue in rest.
// A mailbox belongs to one receiving process, so at most one Get waits at
// a time and its wait is a single slot.
//
// Both maps are made by the first Put that queues into them: most ranks
// of a large job never receive a point-to-point message.
type Mailbox struct {
	first map[mboxKey]Msg   // each key's oldest queued message
	rest  map[mboxKey][]Msg // each key's later messages, oldest first

	waiter *Proc   // blocked in Get on want, or nil
	want   mboxKey // the key waiter waits on
	got    Msg     // handed to waiter by Put
}

// NewMailbox returns an empty mailbox.  The zero Mailbox is empty too.
func NewMailbox() *Mailbox { return &Mailbox{} }

// Put delivers m, waking a matching blocked receiver if one exists.
func (b *Mailbox) Put(m Msg) {
	k := mboxKey{m.Src, m.Tag}
	if p := b.waiter; p != nil && b.want == k {
		b.waiter, b.got = nil, m
		p.Wake()
		return
	}
	if _, queued := b.first[k]; queued {
		if b.rest == nil {
			b.rest = make(map[mboxKey][]Msg)
		}
		b.rest[k] = append(b.rest[k], m)
		return
	}
	if b.first == nil {
		b.first = make(map[mboxKey]Msg)
	}
	b.first[k] = m
}

// Get blocks p until a message from src with the given tag is available
// and returns it.  At most one process may wait on a mailbox at a time.
func (b *Mailbox) Get(p *Proc, src, tag int) Msg {
	k := mboxKey{src, tag}
	if m, ok := b.take(k); ok {
		return m
	}
	if b.waiter != nil {
		panic("sim: concurrent Mailbox.Get")
	}
	b.waiter, b.want = p, k
	p.park()
	m := b.got
	b.got = Msg{}
	return m
}

// take removes and returns k's oldest queued message, if any.
func (b *Mailbox) take(k mboxKey) (Msg, bool) {
	m, ok := b.first[k]
	if !ok {
		return Msg{}, false
	}
	switch q := b.rest[k]; len(q) {
	case 0:
		delete(b.first, k)
	case 1:
		b.first[k] = q[0]
		delete(b.rest, k)
	default:
		b.first[k], b.rest[k] = q[0], q[1:]
	}
	return m, true
}
