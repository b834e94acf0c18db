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
// pop. A free slab slot keeps only owner, as the free-list link. A resume
// (evSwitch, evWake) keeps in owner the gen of the record it resumes (see
// checkGen): its owner is the record's. A burst's payload (kind evBurst,
// arg its *burst) stands for all its members not yet started and a global
// run's (evRun, owner its last origin) for all its members left; each stays
// in its slot until the last one pops. Four fields, so the compiler keeps a
// popped payload in registers.
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

// chain is a FIFO list of n parked keys, threaded through their links from
// the head's slab slot to the tail's. It means nothing while the wheel slot
// or bucket holding it is marked empty.
type chain struct{ head, tail, n int32 }

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
// a job's rank exits one global delay after its start are such a run, each
// key one append and one increment. The first key below the run's tail
// turns the run into a binary heap on (seq, origin) — a sorted slice
// already is one — which it stays until now empties.
//
// A spawn burst of n members is one key, its next member's (t, s, origin),
// and counts n in Len. Popping a member advances the key in place to
// (t, s+1, origin), the least of the members left: at the head of a sorted
// run that is one compare with the key after it, and if another key arrived
// between members the run becomes a heap and the key sifts down.
//
// A global run (see AtGlobalRun) is one key too: members (t, s, o) for
// consecutive origins o up to the last, which its payload's owner holds.
// No key can lie between (t, s, o) and (t, s, o+1), so popping a member
// advances the key's origin in place and it stays the least: no compare.
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
	// parked (nil until then), together with the next few, and is recycled
	// with those slots; nlinks counts the chunks carved.
	links  []*[linkChunk]keyLink
	nlinks int
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

// growSlab adds the chunks n more slots need, and at least an eighth of the
// chunks the slab already has, carved from one allocation, and room in
// links for their link chunks (carved on use): a slab that grows to k
// chunks costs about 8 ln k allocations, not k, and holds at most an eighth
// more slots than its high-water mark.
func (q *eventQueue) growSlab(n int) {
	k := (int(q.slots) + n - len(q.slab)*slabChunk + slabChunk - 1) >> slabShift
	if k <= 0 {
		return
	}
	k = max(k, len(q.slab)/8)
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
	first, end := int(lo)>>linkShift, min((int(lo)+n-1)>>linkShift+1, len(q.links))
	k := 0
	for _, c := range q.links[first:end] {
		if c == nil {
			k++
		}
	}
	if k == 0 {
		return
	}
	q.nlinks += k
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

// putBurst files burst b as one entry under its first member's key k.
func (q *eventQueue) putBurst(k eventKey, b *burst) {
	q.put(k, b.owner0, evBurst, nil, b)
	q.n += int(b.n) - 1
}

// extendRun adds origin r.last to r's open entry, which must still hold
// every member from its key's origin up to r.last-1.
func (q *eventQueue) extendRun(r *GlobalRun) {
	q.at(r.slot).owner = r.last
	q.n++
}

// put files an event field by field: the payload fields go straight into a
// free slab slot, the key (its slot set here) into now, the wheel or a
// bucket. It returns the slot.
func (q *eventQueue) put(k eventKey, owner int32, kind uint8, afn func(any), arg any) int32 {
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
	return k.slot
}

// add parks k (t > last): it writes k's link, carving its chunk if it is
// not there yet, and files it. The chunks after it that are still missing
// are carved with it, a quarter as many as are carved so far (up to one
// slab chunk's worth), so parking a queue's first keys carves one small
// chunk and parking the 65 536 rank exits of a 64k-node job about 80.
func (q *eventQueue) add(k eventKey) {
	c := q.links[uint32(k.slot)>>linkShift]
	if c == nil {
		q.carveLinks(k.slot&^(linkChunk-1), min(max(q.nlinks/4, 1), slabChunk/linkChunk)*linkChunk)
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
		ch.head, ch.n = k.slot, 0
	} else {
		q.link(ch.tail).next = k.slot
	}
	ch.tail = k.slot
	ch.n++
}

// pushNow adds k (t == last) to now: appended while it keeps the run
// sorted, sifted up once now is a heap. A full run whose popped prefix is
// at least half of it slides down instead of growing, so a long burst at
// one instant holds memory for its pending keys, not for all it ever had.
func (q *eventQueue) pushNow(k eventKey) {
	if q.now == nil {
		q.now = make([]eventKey, 0, 16)
	}
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
		// The whole chain moves into now: make room for it at once, as a
		// job's 65 536 rank exits one global delay after its start arrive.
		q.now = slices.Grow(q.now, int(ch.n))
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
// popped closure or argument — except for a burst or a global run with
// members left, whose key advances to the next member and whose payload
// stays (see member).
func (q *eventQueue) pop() (Time, payload) {
	if len(q.now) == 0 {
		q.refill()
	}
	q.n--
	var top eventKey
	if q.nowHeap {
		top = q.now[0]
	} else {
		top = q.now[q.nowHead]
	}
	sp := q.at(top.slot)
	p := *sp
	if p.kind >= evBurst && !q.member(top, &p) {
		return top.t, p
	}
	if q.nowHeap {
		q.popHeap()
	} else if q.nowHead++; q.nowHead == len(q.now) {
		q.now, q.nowHead = q.now[:0], 0
	}
	*sp = payload{owner: q.freeHead}
	q.freeHead = top.slot + 1
	return top.t, p
}

// member turns p, the payload of the burst or global run at now's head whose
// member top is being popped, into what exec runs for that member — a
// burst's with owner set to the member's index, a run's with the global
// owner — and reports whether it was the entry's last. If it was not, the
// key at now's head moves on to the next member.
func (q *eventQueue) member(top eventKey, p *payload) (last bool) {
	if p.kind == evBurst {
		b := p.arg.(*burst)
		i := top.seq - b.seq0
		p.owner = int32(i)
		if i == uint64(b.n)-1 {
			return true
		}
		q.advanceBurst()
		return false
	}
	last = top.origin == p.owner
	p.owner = GlobalOwner
	if !last {
		if q.nowHeap {
			q.now[0].origin++
		} else {
			q.now[q.nowHead].origin++
		}
	} else if r := p.arg.(*GlobalRun); r.slot == top.slot {
		r.open = false
	}
	return last
}

// advanceBurst moves the burst key at now's head to its next member: seq
// plus one. The key stays the least in now unless another arrived between
// the members; then a sorted run turns into a heap, and the key sifts down.
func (q *eventQueue) advanceBurst() {
	now := q.now
	if !q.nowHeap {
		h := q.nowHead
		now[h].seq++
		if h+1 == len(now) || !now[h+1].less(now[h]) {
			return
		}
		now, q.nowHead, q.nowHeap = now[:copy(now, now[h:])], 0, true
		q.now = now
	} else {
		now[0].seq++
	}
	q.siftDown(now[0], len(now))
}

// popHeap removes the top of the now heap; an emptied heap is an empty run.
func (q *eventQueue) popHeap() {
	n := len(q.now) - 1
	if n > 0 {
		q.siftDown(q.now[n], n)
	} else {
		q.nowHeap = false
	}
	q.now = q.now[:n]
}

// siftDown places k at the root of the heap now[:n] and sifts it down.
func (q *eventQueue) siftDown(k eventKey, n int) {
	now := q.now
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && now[c+1].less(now[c]) {
			c++
		}
		if !now[c].less(k) {
			break
		}
		now[i] = now[c]
		i = c
	}
	now[i] = k
}

// appendPending appends every pending event, key and payload, in queue
// (not key) order. A burst counts as its members not yet started, each with
// its own key and owner and the evSwitch kind its start would have had as a
// single spawn; a global run as its members left, each the evFn event
// AtGlobal would have filed; a resume with its record's owner.
func (q *eventQueue) appendPending(dst []event) []event {
	add := func(k eventKey) {
		p := *q.at(k.slot)
		switch p.kind {
		case evBurst:
			b := p.arg.(*burst)
			for i := int(k.seq - b.seq0); i < int(b.n); i++ {
				k.seq = b.seq0 + uint64(i)
				dst = append(dst, event{k, payload{owner: int32(b.owner(i)), kind: evSwitch, arg: b}})
			}
		case evRun:
			fn := p.arg.(*GlobalRun).fn
			for last := p.owner; k.origin <= last; k.origin++ {
				dst = append(dst, event{k, payload{owner: GlobalOwner, kind: evFn, arg: fn}})
			}
		case evSwitch, evWake:
			p.owner = p.arg.(*Proc).owner
			dst = append(dst, event{k, p})
		default:
			dst = append(dst, event{k, p})
		}
	}
	for _, k := range q.now[q.nowHead:] {
		add(k)
	}
	walk := func(ch chain) {
		for slot := ch.head; ; slot = q.link(slot).next {
			add(q.key(slot))
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
