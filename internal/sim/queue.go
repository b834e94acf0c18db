package sim

// Queue is an unbounded FIFO mailbox between simulated processes. Put may be
// called from process or engine context; Get blocks the calling process until
// an item is available. Waiting processes are served in FIFO order.
//
// A Queue embedded by value in a larger record is named with Init before its
// first use. The first waiter is held inline and later ones in an overflow
// slice, so a queue with one getter — a CHT's inbox — allocates nothing to
// park it.
type Queue[T any] struct {
	name    string
	num     int // with num >= 0, name is a prefix (see numberedName)
	items   []T
	head    int
	w0      *Proc   // the longest-waiting getter, nil when none waits
	waiters []*Proc // getters after w0, oldest at whead
	whead   int
	puts    uint64
	maxLen  int
	onDepth func(depth int)
}

// NewQueue creates a queue for the processes of e. The name appears in
// deadlock reports.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{name: name, num: -1}
}

// Init names a queue embedded by value in a larger record, sparing the
// separate allocation NewQueue implies: prefix followed by num in decimal,
// or prefix alone when num < 0, formatted only when a deadlock report reads
// it. Call it before the queue's first use.
func (q *Queue[T]) Init(prefix string, num int) { q.name, q.num = prefix, num }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// MaxLen returns the high-water mark of buffered items, a contention signal.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// Puts returns the total number of items ever enqueued.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// OnDepth registers fn (nil to remove) to observe the buffered depth after
// every Put. It is the queue-occupancy hook of the observability layer:
// purely passive, called synchronously in whatever context Put runs in, and
// it must not touch the engine.
func (q *Queue[T]) OnDepth(fn func(depth int)) { q.onDepth = fn }

// Put enqueues x and wakes the longest-waiting getter, if any.
func (q *Queue[T]) Put(x T) {
	q.items = append(q.items, x)
	q.puts++
	n := q.Len()
	if n > q.maxLen {
		q.maxLen = n
	}
	if q.onDepth != nil {
		q.onDepth(n)
	}
	if w := q.w0; w != nil {
		q.w0 = nil
		if q.whead < len(q.waiters) {
			q.w0 = q.waiters[q.whead]
			q.waiters[q.whead] = nil // release reference for GC
			q.whead++
			if q.whead == len(q.waiters) {
				q.waiters, q.whead = q.waiters[:0], 0
			}
		}
		w.wake()
	}
}

func (q *Queue[T]) blockLabel(int64) string { return "queue " + numberedName(q.name, q.num) }

// Get dequeues the oldest item, blocking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if x, ok := q.Poll(p); ok {
			return x
		}
	}
}

// Poll dequeues the oldest item if there is one; otherwise it registers p as
// a waiter, parks it and reports false once p has been woken. It is the wait
// of a step process, whose park returns at once: the step function returns on
// false and polls again when resumed.
func (q *Queue[T]) Poll(p *Proc) (x T, ok bool) {
	if q.Len() == 0 {
		if q.w0 == nil {
			q.w0 = p
		} else {
			q.waiters = append(q.waiters, p)
		}
		p.parkOn(q, 0)
		return x, false
	}
	return q.pop(), true
}

// pop dequeues the oldest item of a non-empty queue. The array rewinds to
// its start whenever the queue drains, and slides its items down once at
// least half of it (and more than 64 items) has been popped, so a queue that
// keeps draining reuses the same array instead of growing a new one behind
// its head.
func (q *Queue[T]) pop() T {
	x := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release reference for GC
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case q.head > 64 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return x
}

// Clear drops every buffered item and returns how many were dropped.
// Waiting getters stay parked (a cleared queue is empty, not closed) — the
// crash-stop fault model uses this to kill a dead node's inbox atomically.
func (q *Queue[T]) Clear() int {
	n := q.Len()
	var zero T
	for i := q.head; i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = q.items[:0]
	q.head = 0
	return n
}

// TryGet dequeues without blocking, reporting whether an item was available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// QueueStub stands in for a Queue whose owner has not built it yet, so that
// a step process can wait on its queue-to-be without the owner writing
// anything: a job's 64k CHTs each poll their node's inbox at t=0, and most
// of those nodes never see a request. The stub holds only the queues'
// common name prefix; a process parked on it is labelled exactly as one
// parked on the empty queue named prefix followed by its number (see
// Init), so deadlock reports and traces cannot tell the two apart.
type QueueStub struct{ prefix string }

// NewQueueStub returns the stub for queues named prefix followed by their
// getter's process number.
func NewQueueStub(prefix string) *QueueStub { return &QueueStub{prefix: prefix} }

func (s *QueueStub) blockLabel(num int64) string {
	return "queue " + numberedName(s.prefix, int(num))
}

// Park parks step process p on the stub, as Poll parks it on an empty
// queue. Only Adopt, on the queue built for p, makes it wakeable: nothing
// else ever resumes it, so the engine takes p's record back until then
// (Engine.Proc rebuilds it).
func (s *QueueStub) Park(p *Proc) { p.parkOn(s, int64(p.Num())) }

// Adopt makes p, if it is parked on stub s, the longest-waiting getter of q,
// exactly as if p had polled q while q was empty, and reports whether it
// did. A p that has not run yet (nil: Engine.Proc has no record of it), or
// waits on anything else, is left alone. Call it on a freshly built queue,
// before its first Put.
func (q *Queue[T]) Adopt(s *QueueStub, p *Proc) bool {
	if p == nil || p.state != procBlocked || p.blockedAt != blocker(s) {
		return false
	}
	if q.w0 == nil {
		q.w0 = p
	} else {
		q.waiters = append(q.waiters, p)
	}
	p.blockedAt, p.blockArg = q, 0
	return true
}

// Event is a broadcast completion flag: processes Wait until some actor calls
// Fire, after which all current and future waiters proceed immediately. It is
// a Flag that carries its own name for deadlock reports.
type Event struct {
	name string
	f    Flag
}

// NewEvent creates an unfired event for the processes of e.
func NewEvent(e *Engine, name string) *Event { return &Event{name: name} }

// Init (re)initializes an Event in place, for events embedded by value in a
// larger record, sparing the separate allocation NewEvent implies. It must
// not be called while waiters are parked.
func (ev *Event) Init(e *Engine, name string) {
	if ev.f.w0 != nil {
		panic("sim: Event.Init with parked waiters")
	}
	ev.name, ev.f.fired = name, false
}

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.f.fired }

// Fire marks the event complete and wakes all waiters. Firing twice is a
// no-op.
func (ev *Event) Fire() { ev.f.Fire() }

// Wait blocks p until the event fires (returns immediately if already fired).
func (ev *Event) Wait(p *Proc) {
	for !ev.Poll(p) {
	}
}

// Poll reports whether the event has fired; if not, it first registers p as
// a waiter and parks it. Like Queue.Poll it is the wait of a step process.
func (ev *Event) Poll(p *Proc) bool {
	if !ev.f.fired {
		ev.f.add(p)
		p.parkOn(ev, 0)
	}
	return ev.f.fired
}

func (ev *Event) blockLabel(int64) string { return "event " + ev.name }

// Flag is an Event that stores no name: the waiter passes the label its
// deadlock reports show, which for a record of a fixed kind is a constant, so
// a Flag embedded by value in many records (an operation handle) does not
// carry the same string in each. Like Queue it holds its first waiter inline
// and later ones in an overflow slice, so a flag with one waiter allocates
// nothing to park it. The zero Flag is unfired.
type Flag struct {
	fired   bool
	w0      *Proc   // the first waiter, nil when none waits
	waiters []*Proc // waiters after w0, in registration order
}

// Reset re-arms f: unfired. It must not be called while waiters are parked.
func (f *Flag) Reset() {
	if f.w0 != nil {
		panic("sim: Flag.Reset with parked waiters")
	}
	f.fired = false
}

// Fired reports whether Fire has been called since the last Reset.
func (f *Flag) Fired() bool { return f.fired }

// Fire marks the flag complete and wakes all waiters in registration order.
// Firing twice is a no-op.
func (f *Flag) Fire() {
	if f.fired {
		return
	}
	f.fired = true
	if f.w0 == nil {
		return
	}
	f.w0.wake()
	for _, p := range f.waiters {
		p.wake()
	}
	f.w0, f.waiters = nil, nil
}

// Wait blocks p until the flag fires (returns immediately if already fired);
// while p is parked, deadlock reports show it blocked on label.
func (f *Flag) Wait(p *Proc, label string) {
	for !f.Poll(p, label) {
	}
}

// Poll reports whether the flag has fired; if not, it first registers p as a
// waiter and parks it on label. Like Queue.Poll it is the wait of a step
// process.
func (f *Flag) Poll(p *Proc, label string) bool {
	if !f.fired {
		f.add(p)
		p.park(label)
	}
	return f.fired
}

// add registers p as a waiter.
func (f *Flag) add(p *Proc) {
	if f.w0 == nil {
		f.w0 = p
	} else {
		f.waiters = append(f.waiters, p)
	}
}

// Gate is a single-waiter, reusable completion signal: the free-list cousin
// of Event for pooled protocol records (e.g. a send parked on a buffer
// credit). Unlike Event it holds no waiter slice and formats no label unless
// a deadlock report asks, so a Gate embedded by value in a pooled record
// costs nothing to recycle. Init rearms it; at most one process may Wait per
// arming (a second concurrent waiter panics).
type Gate struct {
	e      *Engine
	label  string
	fired  bool
	waiter *Proc
}

// Init (re)arms the gate: unfired, no waiter, with the given label shown in
// deadlock reports while a process waits. It must not be called while a
// waiter is parked.
func (g *Gate) Init(e *Engine, label string) {
	if g.waiter != nil {
		panic("sim: Gate.Init with a parked waiter")
	}
	g.e, g.label, g.fired = e, label, false
}

// Fired reports whether Fire has been called since the last Init.
func (g *Gate) Fired() bool { return g.fired }

// Fire marks the gate complete and wakes its waiter, if any. Firing twice
// between Inits is a no-op.
func (g *Gate) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if w := g.waiter; w != nil {
		w.wake()
	}
}

// Wait blocks p until the gate fires (immediately if it already has).
func (g *Gate) Wait(p *Proc) {
	for !g.fired {
		if g.waiter != nil && g.waiter != p {
			panic("sim: Gate supports a single waiter")
		}
		g.waiter = p
		p.parkOn(g, 0)
	}
	g.waiter = nil
}

func (g *Gate) blockLabel(int64) string { return g.label }
