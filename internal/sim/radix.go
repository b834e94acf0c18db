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

// event is an event in transit — built by scheduleEv, buffered in the
// shard outboxes — before push files its payload in a slab slot (key.slot
// is unset until then).
type event struct {
	eventKey
	payload
}

// blockKeys is the number of keys in one block of a bucket's chain: 31
// keys and the link take 752 bytes, which fit the 768-byte size class.
const blockKeys = 31

// keyBlock is one link of a bucket's chain: blockKeys keys (fewer in a
// bucket's newest block) and the next, older, block. Blocks are allocated
// one by one and recycled through the queue's free list, so the queue grows
// without copying; next comes first, so the collector scans one word of a
// block.
type keyBlock struct {
	next *keyBlock
	keys [blockKeys]eventKey
}

// bucket is a chain of key blocks, newest first, and its smallest key.
type bucket struct {
	blk *keyBlock // the newest block; nil when the bucket is empty
	n   int       // keys in the newest block; every older block is full
	min eventKey
}

// eventQueue is an exact monotone priority queue of eventKeys over a payload
// slab: a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) on t.
// Virtual time never runs backwards, so every push is at or after last, the
// time of the most recent pop. A key with t == last sits in now; any other
// key sits in bucket bits.Len64(t ^ last), chosen by the highest time bit
// where it differs from last. Every key in a bucket is smaller than every
// key in a higher one, so when now runs dry, pop advances last to the
// smallest time in the lowest non-empty bucket and redistributes that
// bucket alone, oldest key first: each of its keys lands in now or in a
// strictly lower bucket. A key therefore moves at most 63 times however
// long it waits — a far timeout no longer costs every pop a sift past it.
//
// now is a sorted run, popped from nowHead, while keys arrive in key order:
// a job's spawn switches at t = 0 and its rank exits one lookahead later
// are such bursts, each key one append and one increment. The first key
// below the run's tail turns the run into a binary heap on (seq, origin) —
// a sorted slice already is one — which it stays until now empties.
//
// head is a pure peek and never moves last: the sharded barrier peeks a
// lane, then merges outbox events that fall below that lane's head but not
// below its last pop.
type eventQueue struct {
	last    Time
	n       int
	mask    uint64     // bit b set: buckets[b] is non-empty (b >= 1)
	now     []eventKey // keys with t == last: a sorted run or a binary min-heap
	nowHead int        // the run's first key (0 while now is a heap)
	nowHeap bool       // now is a heap, not a sorted run
	buckets [64]bucket // buckets[0] is unused; now stands in for it
	free    *keyBlock  // empty blocks, linked through next
	blocks  int        // blocks allocated: every one is in a chain or free
	// slab holds the payloads in chunks of slabChunk slots, so a slot never
	// moves and growing the slab copies nothing; slots is how many slots it
	// has handed out, its pending high-water mark.
	slab  []*[slabChunk]payload
	slots int32
	// freeHead is 1 + the first free slab slot (0: none); a free slot's
	// owner field is 1 + the next free slot, so the free list needs no side
	// array.
	freeHead int32
}

// slabChunk is the number of payload slots in one slab chunk (32 KiB).
const (
	slabShift = 10
	slabChunk = 1 << slabShift
)

// at returns slot's payload.
func (q *eventQueue) at(slot int32) *payload {
	return &q.slab[uint32(slot)>>slabShift][uint32(slot)&(slabChunk-1)]
}

// growSlab adds the chunks n more slots need, carved from one allocation.
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
}

func (q *eventQueue) Len() int { return q.n }

// head is the smallest pending key; the queue must be non-empty.
func (q *eventQueue) head() eventKey {
	if len(q.now) > 0 {
		return q.now[q.nowHead]
	}
	return q.buckets[bits.TrailingZeros64(q.mask)].min
}

func (q *eventQueue) push(ev *event) {
	var slot int32
	if q.freeHead > 0 {
		slot = q.freeHead - 1
		p := q.at(slot)
		q.freeHead = p.owner
		*p = ev.payload
	} else {
		if int(q.slots) == len(q.slab)*slabChunk {
			q.growSlab(1)
		}
		slot = q.slots
		q.slots++
		*q.at(slot) = ev.payload
	}
	k := ev.eventKey
	k.slot = slot
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
// their chunks in one allocation and, when t is the last pop's time, the now
// run grows once to hold them, so a burst of n pushes appends without a
// doubling copy.
func (q *eventQueue) reserve(n int, t Time) {
	q.growSlab(n)
	if t == q.last {
		q.now = slices.Grow(q.now, n)
	}
}

// add files k (t > last) in its bucket.
func (q *eventQueue) add(k eventKey) {
	b := bits.Len64(uint64(k.t ^ q.last))
	bk := &q.buckets[b]
	if bk.blk == nil {
		bk.min = k
		q.mask |= 1 << b
		bk.blk, bk.n = q.newBlock(nil), 0
	} else {
		if k.less(bk.min) {
			bk.min = k
		}
		if bk.n == blockKeys {
			bk.blk, bk.n = q.newBlock(bk.blk), 0
		}
	}
	bk.blk.keys[bk.n] = k
	bk.n++
}

// newBlock takes an empty block off the free list (or allocates one) and
// links it in front of next.
func (q *eventQueue) newBlock(next *keyBlock) *keyBlock {
	blk := q.free
	if blk != nil {
		q.free = blk.next
	} else {
		blk = new(keyBlock)
		q.blocks++
	}
	blk.next = next
	return blk
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

// refill advances last to the smallest pending time, the minimum of the
// lowest non-empty bucket, and redistributes that bucket: its keys at the
// new last go to now, the rest to lower buckets. The chain is reversed in
// place first, so the keys leave in push order and a bucket filled in key
// order lands in now as one sorted run. Its blocks return to the free list
// as they empty.
func (q *eventQueue) refill() {
	b := bits.TrailingZeros64(q.mask)
	bk := &q.buckets[b]
	last := bk.min.t
	q.last = last
	q.mask &^= 1 << b
	var oldest *keyBlock
	for blk := bk.blk; blk != nil; {
		next := blk.next
		blk.next = oldest
		oldest, blk = blk, next
	}
	for blk := oldest; blk != nil; {
		keys := blk.keys[:]
		next := blk.next
		if next == nil {
			keys = keys[:bk.n] // the newest block
		}
		for _, k := range keys {
			if k.t == last {
				q.pushNow(k)
			} else {
				q.add(k)
			}
		}
		blk.next = q.free
		q.free = blk
		blk = next
	}
	bk.blk = nil
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
	for m := q.mask; m != 0; m &= m - 1 {
		bk := &q.buckets[bits.TrailingZeros64(m)]
		n := bk.n
		for blk := bk.blk; blk != nil; blk = blk.next {
			for _, k := range blk.keys[:n] {
				dst = append(dst, event{k, *q.at(k.slot)})
			}
			n = blockKeys
		}
	}
	return dst
}
