package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// eventKey is a pending event's determinism-contract key (time, seq, origin)
// plus the slab slot holding its payload. It is all the queue moves.
// (seq, origin) is unique per event, so the key order is strict and total:
// any exact queue pops the same sequence.
type eventKey struct {
	t      Time
	seq    uint64
	origin int32
	slot   int32
}

// less orders keys by (time, seq, origin); slot plays no part.
func (a eventKey) less(b eventKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.origin < b.origin
}

// payload is what a pending event runs: written once at push, read once at
// pop. A free slab slot keeps only owner, as the free-list link.
type payload struct {
	owner int32
	kind  uint8
	afn   func(any)
	arg   any
}

// event is a pending event's key and payload together, as appendPending
// reports them and push files them.
type event struct {
	eventKey
	payload
}

// keyLink is a key parked in the wheel or a bucket, kept at its payload's
// slab slot: the key less its slot (the link's own index) and next, the
// slab slot of the key after it in its chain (stale at the tail).
type keyLink struct {
	t      Time
	seq    uint64
	origin int32
	next   int32
}

// chain is a FIFO list of parked keys, threaded through their links from
// the head's slab slot to the tail's. It means nothing while the wheel slot
// or bucket holding it is marked empty.
type chain struct{ head, tail int32 }

// bucket is a chain of keys and its smallest key.
type bucket struct {
	chain
	min eventKey
}

// eventQueue is an exact monotone priority queue of eventKeys over a payload
// slab: a timing wheel (Varghese and Lauck, SOSP 1987) in front of a radix
// heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) on t. Virtual time
// never runs backwards, so every push is at or after last, the time of the
// most recent pop. A key with t == last sits in now. A later key in last's
// aligned window of wheelSlots ns (t>>wheelBits == last>>wheelBits) sits in
// wheel slot t%wheelSlots: the wheel resolves a near key's time exactly, so
// it moves once, into now, when its slot comes up. Any other key sits in
// bucket bits.Len64(t ^ last) — always above wheelBits — chosen by the
// highest time bit where it differs from last. Every wheel key is smaller
// than every bucket key, and every key in a bucket smaller than every key in
// a higher one. So when now runs dry, pop takes the lowest wheel slot's
// chain as the new now; only when the wheel is empty does it advance last to
// the smallest time in the lowest non-empty bucket and redistribute that
// bucket alone, oldest key first: each of its keys lands in now, in the
// wheel or in a strictly lower bucket. A far key therefore moves at most 52
// times however long it waits — a far timeout costs no pop a sift past it.
//
// Wheel slots and buckets hold no keys of their own: a parked key lives in
// links at its payload's slab slot, and a slot or bucket is a chain through
// those links. Parking and moving a key write one link and the previous
// tail's next; no storage grows with how many keys share a chain.
//
// now is a sorted run, popped from nowHead, while keys arrive in key order:
// a job's spawn switches at t = 0 and its rank exits one global delay later
// are such bursts, each key one append and one increment. The first key
// below the run's tail turns the run into a binary heap on (seq, origin) —
// a sorted slice already is one — which it stays until now empties.
//
// head is a pure peek and never moves last, so a push may still land below
// the head as long as it is not below the last pop.
type eventQueue struct {
	last    Time
	n       int
	mask    uint64     // bit b set: buckets[b] is non-empty (b > wheelBits)
	now     []eventKey // keys with t == last: a sorted run or a binary min-heap
	nowHead int        // the run's first key (0 while now is a heap)
	nowHeap bool       // now is a heap, not a sorted run
	// wheel holds the chains of keys in last's window past last; it is
	// carved on the first such key, so an engine that never parks one holds
	// none of its slot array.
	wheel   *wheel
	buckets [64]bucket // buckets[0..wheelBits] are unused; now and the wheel stand in for them
	// slab holds the payloads in chunks of slabChunk slots, so a slot never
	// moves and growing the slab copies nothing; slots is how many slots it
	// has handed out, its pending high-water mark.
	slab  []*[slabChunk]payload
	slots int32
	// links is the parked keys' side of the slab: the link of slab slot s is
	// links[s/linkChunk][s%linkChunk] while s's key waits in the wheel or a
	// bucket. A chunk is carved the first time a key of one of its slots is
	// parked (nil until then), and is recycled with those slots.
	links []*[linkChunk]keyLink
	// freeHead is 1 + the first free slab slot (0: none); a free slot's
	// owner field is 1 + the next free slot, so the free list needs no side
	// array.
	freeHead int32
}

// wheelBits is the number of low time bits the wheel resolves directly:
// 91-94 % of the pushes a contended run makes land less than 2^12 ns after
// the last pop.
const (
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
)

// wheel is the queue's bottom level: slot s holds the chain of keys at time
// window|s. occ and sum are a two-level occupancy bitmap: bit s%64 of
// occ[s/64] is set while slot s is non-empty, bit i of sum while occ[i] is
// non-zero.
type wheel struct {
	sum   uint64
	occ   [wheelSlots / 64]uint64
	chain [wheelSlots]chain
}

// lowest is the lowest non-empty slot; the wheel must be non-empty.
func (w *wheel) lowest() int {
	i := bits.TrailingZeros64(w.sum)
	return i<<6 | bits.TrailingZeros64(w.occ[i])
}

// slabChunk is the number of payload slots in one slab chunk (32 KiB);
// linkChunk is the number of key links in one link chunk (1.5 KiB), smaller,
// so parking a queue's first keys carves little.
const (
	slabShift = 10
	slabChunk = 1 << slabShift
	linkShift = 6
	linkChunk = 1 << linkShift
)

// at returns slot's payload.
func (q *eventQueue) at(slot int32) *payload {
	return &q.slab[uint32(slot)>>slabShift][uint32(slot)&(slabChunk-1)]
}

// link returns slab slot slot's key link; its chunk must be carved.
func (q *eventQueue) link(slot int32) *keyLink {
	return &q.links[uint32(slot)>>linkShift][uint32(slot)&(linkChunk-1)]
}

// growSlab adds the chunks n more slots need, carved from one allocation,
// and room in links for their link chunks (carved on use).
func (q *eventQueue) growSlab(n int) {
	k := (int(q.slots) + n - len(q.slab)*slabChunk + slabChunk - 1) >> slabShift
	if k <= 0 {
		return
	}
	chunks := make([]payload, k*slabChunk)
	q.slab = slices.Grow(q.slab, k)
	for i := range k {
		q.slab = append(q.slab, (*[slabChunk]payload)(chunks[i*slabChunk:]))
	}
	q.links = append(q.links, make([]*[linkChunk]keyLink, k<<(slabShift-linkShift))...)
}

// carveLinks carves the link chunks slab slots [lo, lo+n) lack, in one
// allocation.
func (q *eventQueue) carveLinks(lo int32, n int) {
	first, end := int(lo)>>linkShift, (int(lo)+n-1)>>linkShift+1
	k := 0
	for _, c := range q.links[first:end] {
		if c == nil {
			k++
		}
	}
	if k == 0 {
		return
	}
	chunks := make([]keyLink, k*linkChunk)
	for i := first; i < end; i++ {
		if q.links[i] == nil {
			q.links[i] = (*[linkChunk]keyLink)(chunks)
			chunks = chunks[linkChunk:]
		}
	}
}

func (q *eventQueue) Len() int { return q.n }

// head is the smallest pending key; the queue must be non-empty. With now
// empty and the wheel not, it is the least key of the lowest slot's chain.
func (q *eventQueue) head() eventKey {
	if len(q.now) > 0 {
		return q.now[q.nowHead]
	}
	if w := q.wheel; w != nil && w.sum != 0 {
		ch := w.chain[w.lowest()]
		best := q.key(ch.head)
		for slot := ch.head; slot != ch.tail; {
			slot = q.link(slot).next
			if k := q.key(slot); k.less(best) {
				best = k
			}
		}
		return best
	}
	return q.buckets[bits.TrailingZeros64(q.mask)].min
}

// key returns the key parked at slab slot slot.
func (q *eventQueue) key(slot int32) eventKey {
	l := q.link(slot)
	return eventKey{t: l.t, seq: l.seq, origin: l.origin, slot: slot}
}

// push files an event built whole.
func (q *eventQueue) push(ev *event) { q.put(ev.eventKey, ev.owner, ev.kind, ev.afn, ev.arg) }

// put files an event field by field: the payload fields go straight into a
// free slab slot, the key (its slot set here) into now, the wheel or a
// bucket.
func (q *eventQueue) put(k eventKey, owner int32, kind uint8, afn func(any), arg any) {
	var p *payload
	if q.freeHead > 0 {
		k.slot = q.freeHead - 1
		p = q.at(k.slot)
		q.freeHead = p.owner
	} else {
		if int(q.slots) == len(q.slab)*slabChunk {
			q.growSlab(1)
		}
		k.slot = q.slots
		q.slots++
		p = q.at(k.slot)
	}
	p.owner, p.kind, p.afn, p.arg = owner, kind, afn, arg
	q.n++
	switch {
	case k.t > q.last:
		q.add(k)
	case k.t == q.last:
		q.pushNow(k)
	default:
		panic(fmt.Sprintf("sim: event at t=%v pushed below the queue's last pop at %v", k.t, q.last))
	}
}

// reserve makes room for n more events at time t: the payload slab gains
// their chunks in one allocation; when t is the last pop's time the now run
// grows once to hold them, so a burst of n pushes appends without a
// doubling copy, and when t is later the links of the new slots are carved
// in one allocation too (and the wheel, if t falls in it).
func (q *eventQueue) reserve(n int, t Time) {
	q.growSlab(n)
	switch {
	case t == q.last:
		q.now = slices.Grow(q.now, n)
	case t > q.last:
		if t^q.last < wheelSlots && q.wheel == nil {
			q.wheel = new(wheel)
		}
		q.carveLinks(q.slots, n)
	}
}

// add parks k (t > last): it writes k's link, carving its chunk if it is
// not there yet, and files it.
func (q *eventQueue) add(k eventKey) {
	c := q.links[uint32(k.slot)>>linkShift]
	if c == nil {
		q.carveLinks(k.slot, 1)
		c = q.links[uint32(k.slot)>>linkShift]
	}
	c[uint32(k.slot)&(linkChunk-1)] = keyLink{t: k.t, seq: k.seq, origin: k.origin}
	q.file(k)
}

// file appends parked key k to the chain of its wheel slot when it lies in
// last's window, of its bucket otherwise.
func (q *eventQueue) file(k eventKey) {
	var ch *chain
	var empty bool
	if x := uint64(k.t ^ q.last); x < wheelSlots {
		w := q.wheel
		if w == nil {
			w = new(wheel)
			q.wheel = w
		}
		s := uint64(k.t) & (wheelSlots - 1)
		bit := uint64(1) << (s & 63)
		empty = w.occ[s>>6]&bit == 0
		w.occ[s>>6] |= bit
		w.sum |= 1 << (s >> 6)
		ch = &w.chain[s]
	} else {
		b := bits.Len64(x)
		bk := &q.buckets[b]
		empty = q.mask>>b&1 == 0
		if empty || k.less(bk.min) {
			bk.min = k
		}
		q.mask |= 1 << b
		ch = &bk.chain
	}
	if empty {
		ch.head = k.slot
	} else {
		q.link(ch.tail).next = k.slot
	}
	ch.tail = k.slot
}

// pushNow adds k (t == last) to now: appended while it keeps the run
// sorted, sifted up once now is a heap. A full run whose popped prefix is
// at least half of it slides down instead of growing, so a long burst at
// one instant holds memory for its pending keys, not for all it ever had.
func (q *eventQueue) pushNow(k eventKey) {
	now := q.now
	if !q.nowHeap {
		n := len(now)
		if n == 0 || !k.less(now[n-1]) {
			if n == cap(now) && 2*q.nowHead >= n {
				now, q.nowHead = now[:copy(now, now[q.nowHead:])], 0
			}
			q.now = append(now, k)
			return
		}
		now, q.nowHead, q.nowHeap = now[:copy(now, now[q.nowHead:])], 0, true
	}
	now = append(now, k)
	q.now = now
	i := len(now) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(now[parent]) {
			break
		}
		now[i] = now[parent]
		i = parent
	}
	now[i] = k
}

// refill advances last to the smallest pending time and fills now with the
// keys at it. While the wheel holds keys, that is the lowest slot: its chain
// becomes now. Otherwise it is the minimum of the lowest non-empty bucket,
// whose chain is redistributed: its keys at the new last go to now, the
// rest to the wheel or lower buckets. Either way the keys leave in push
// order, so a chain filled in key order lands in now as one sorted run.
func (q *eventQueue) refill() {
	var ch chain
	if w := q.wheel; w != nil && w.sum != 0 {
		s := w.lowest()
		if w.occ[s>>6] &^= 1 << (s & 63); w.occ[s>>6] == 0 {
			w.sum &^= 1 << (s >> 6)
		}
		q.last = q.last&^(wheelSlots-1) | Time(s)
		ch = w.chain[s]
	} else {
		b := bits.TrailingZeros64(q.mask)
		q.last = q.buckets[b].min.t
		q.mask &^= 1 << b
		ch = q.buckets[b].chain
	}
	for slot := ch.head; ; {
		k, next := q.key(slot), q.link(slot).next
		if k.t == q.last {
			q.pushNow(k)
		} else {
			q.file(k) // its link is already written
		}
		if slot == ch.tail {
			return
		}
		slot = next
	}
}

// pop removes the smallest event and returns its time and payload. Its slab
// slot is zeroed onto the free list, so the queue keeps no reference to the
// popped closure or argument.
func (q *eventQueue) pop() (Time, payload) {
	if len(q.now) == 0 {
		q.refill()
	}
	var top eventKey
	if q.nowHeap {
		top = q.popHeap()
	} else {
		top = q.now[q.nowHead]
		if q.nowHead++; q.nowHead == len(q.now) {
			q.now, q.nowHead = q.now[:0], 0
		}
	}
	q.n--
	sp := q.at(top.slot)
	p := *sp
	*sp = payload{owner: q.freeHead}
	q.freeHead = top.slot + 1
	return top.t, p
}

// popHeap removes the top of the now heap; an emptied heap is an empty run.
func (q *eventQueue) popHeap() eventKey {
	now := q.now
	top := now[0]
	n := len(now) - 1
	if n > 0 {
		tail := now[n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && now[c+1].less(now[c]) {
				c++
			}
			if !now[c].less(tail) {
				break
			}
			now[i] = now[c]
			i = c
		}
		now[i] = tail
	} else {
		q.nowHeap = false
	}
	q.now = now[:n]
	return top
}

// appendPending appends every pending event, key and payload, in queue
// (not key) order.
func (q *eventQueue) appendPending(dst []event) []event {
	for _, k := range q.now[q.nowHead:] {
		dst = append(dst, event{k, *q.at(k.slot)})
	}
	walk := func(ch chain) {
		for slot := ch.head; ; slot = q.link(slot).next {
			dst = append(dst, event{q.key(slot), *q.at(slot)})
			if slot == ch.tail {
				return
			}
		}
	}
	if w := q.wheel; w != nil {
		for i, m := range w.occ {
			for ; m != 0; m &= m - 1 {
				walk(w.chain[i<<6|bits.TrailingZeros64(m)])
			}
		}
	}
	for m := q.mask; m != 0; m &= m - 1 {
		walk(q.buckets[bits.TrailingZeros64(m)].chain)
	}
	return dst
}
