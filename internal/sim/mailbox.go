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
// A mailbox belongs to one receiving process, so at most one Get (or an
// Await on the process's behalf) waits at a time and its wait is a single
// slot.
type Mailbox struct {
	first map[mboxKey]Msg   // each key's oldest queued message
	rest  map[mboxKey][]Msg // each key's later messages, oldest first

	waiter *Proc   // blocked in Get on want, or nil
	await  func()  // or the callback an Await left for want, or nil
	eng    *Engine // await's engine
	want   mboxKey // the key waiter or await waits on
	got    Msg     // handed to waiter by Put
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{first: make(map[mboxKey]Msg), rest: make(map[mboxKey][]Msg)}
}

// Put delivers m, waking a matching blocked receiver if one exists.
func (b *Mailbox) Put(m Msg) {
	k := mboxKey{m.Src, m.Tag}
	if p := b.waiter; p != nil && b.want == k {
		b.waiter, b.got = nil, m
		p.Wake()
		return
	}
	if fn := b.await; fn != nil && b.want == k {
		b.await = nil
		b.eng.schedule(b.eng.now, nil, fn) // where Wake would schedule
		return
	}
	if _, queued := b.first[k]; queued {
		b.rest[k] = append(b.rest[k], m)
		return
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
	b.claim(k)
	b.waiter = p
	p.park()
	m := b.got
	b.got = Msg{}
	return m
}

// Await is Get for engine callbacks acting for the mailbox's process.  If
// a message from src with the given tag is queued, it takes it and reports
// true.  Otherwise it leaves fn in the mailbox's waiting slot and reports
// false, and the Put that delivers the message schedules fn at that
// instant on e, exactly where it would have woken a blocked Get.  The
// message itself is dropped: Await is for notifications whose arrival is
// all they carry.
func (b *Mailbox) Await(e *Engine, src, tag int, fn func()) bool {
	k := mboxKey{src, tag}
	if _, ok := b.take(k); ok {
		return true
	}
	b.claim(k)
	b.await, b.eng = fn, e
	return false
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

// claim takes the waiting slot for k; it panics if it is taken.
func (b *Mailbox) claim(k mboxKey) {
	if b.waiter != nil || b.await != nil {
		panic("sim: concurrent Mailbox.Get")
	}
	b.want = k
}
