package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// checkQueue verifies the queue's invariants and its slab bookkeeping: now
// holds keys at last, either as a sorted run from nowHead (empty only as a
// zero-length slice) or as a binary heap from index 0; the wheel's summary
// word agrees with its occupancy words, and every occupied slot chains keys
// at its own time in last's window, past last; every non-empty bucket
// chains keys whose time differs from last first at the bucket's bit —
// never one the wheel stands in for — and its min is its smallest key; the
// link chunks shadow the slab's; every key names a distinct live slab slot,
// a burst's key a member it has not started, and every slot off the queue
// is on the free list with no payload left in it. Len counts a burst's
// members left.
func checkQueue(t *testing.T, q *eventQueue) {
	t.Helper()
	if q.nowHead < 0 || q.nowHead > len(q.now) || q.nowHead == len(q.now) && q.nowHead > 0 {
		t.Fatalf("now run [%d:%d] is out of range or empty but not reset", q.nowHead, len(q.now))
	}
	if q.nowHeap && (q.nowHead != 0 || len(q.now) == 0) {
		t.Fatalf("now heap starts at %d with %d keys; want start 0 and at least one key", q.nowHead, len(q.now))
	}
	now := q.now[q.nowHead:]
	for i, k := range now {
		if k.t != q.last {
			t.Fatalf("now[%d] = %+v is not at last %v", i, k, q.last)
		}
		if q.nowHeap && i > 0 && k.less(now[(i-1)/2]) {
			t.Fatalf("now heap broken at %d: %+v under parent %+v", i, k, now[(i-1)/2])
		}
		if !q.nowHeap && i > 0 && k.less(now[i-1]) {
			t.Fatalf("now run unsorted at %d: %+v after %+v", i, k, now[i-1])
		}
	}
	keys := append([]eventKey(nil), now...)
	if len(q.links) != len(q.slab)<<(slabShift-linkShift) {
		t.Fatalf("%d link chunk pointers for %d slab chunks", len(q.links), len(q.slab))
	}
	// walk returns ch's keys in push order.
	walk := func(where string, ch chain) []eventKey {
		var out []eventKey
		for slot := ch.head; ; slot = q.link(slot).next {
			if slot < 0 || slot >= q.slots || q.links[slot>>linkShift] == nil {
				t.Fatalf("%s chains slab slot %d (of %d) without a link", where, slot, q.slots)
			}
			if len(out) > int(q.slots) {
				t.Fatalf("%s: chain is cyclic", where)
			}
			out = append(out, q.key(slot))
			if slot == ch.tail {
				return out
			}
		}
	}
	if w := q.wheel; w != nil {
		for i, word := range w.occ {
			if (w.sum>>i&1 == 1) != (word != 0) {
				t.Fatalf("wheel summary bit %d is %d, occupancy word %#x", i, w.sum>>i&1, word)
			}
			for ; word != 0; word &= word - 1 {
				s := i<<6 | bits.TrailingZeros64(word)
				at := q.last&^(wheelSlots-1) | Time(s)
				for _, k := range walk(fmt.Sprintf("wheel slot %d", s), w.chain[s]) {
					if k.t != at || at <= q.last {
						t.Fatalf("key %+v in wheel slot %d, at %v (last %v)", k, s, at, q.last)
					}
					keys = append(keys, k)
				}
			}
		}
	}
	for b := range q.buckets {
		if q.mask>>b&1 == 0 {
			continue
		}
		if b <= wheelBits {
			t.Fatalf("bucket %d is marked non-empty; the wheel stands in for it", b)
		}
		bk := q.buckets[b]
		in := walk(fmt.Sprintf("bucket %d", b), bk.chain)
		least := in[0]
		for _, k := range in {
			if got := bits.Len64(uint64(k.t ^ q.last)); got != b || k.t < q.last {
				t.Fatalf("key %+v in bucket %d, belongs in %d (last %v)", k, b, got, q.last)
			}
			if k.less(least) {
				least = k
			}
		}
		if least != bk.min {
			t.Fatalf("bucket %d: min %+v, smallest key %+v", b, bk.min, least)
		}
		keys = append(keys, in...)
	}
	pending := 0
	for _, k := range keys {
		pending++
		switch p := q.at(k.slot); p.kind {
		case evBurst:
			b := p.arg.(*burst)
			if k.seq < b.seq0 || k.seq-b.seq0 >= uint64(b.n) {
				t.Fatalf("burst key %+v names no member of seqs [%d, %d)", k, b.seq0, b.seq0+uint64(b.n))
			}
			pending += int(b.n) - 1 - int(k.seq-b.seq0)
		case evRun:
			if k.origin > p.owner {
				t.Fatalf("run key %+v is past its last origin %d", k, p.owner)
			}
			pending += int(p.owner - k.origin)
		}
	}
	if pending != q.n {
		t.Fatalf("Len() = %d, but %d events are filed", q.n, pending)
	}

	live := make([]bool, q.slots)
	for _, k := range keys {
		if live[k.slot] {
			t.Fatalf("slot %d held by two keys", k.slot)
		}
		live[k.slot] = true
	}
	free := 0
	for s := q.freeHead; s > 0; s = q.at(s - 1).owner {
		if live[s-1] {
			t.Fatalf("slot %d is both live and free", s-1)
		}
		if p := *q.at(s - 1); p.afn != nil || p.arg != nil || p.kind != 0 {
			t.Fatalf("free slot %d still holds a payload: %+v", s-1, p)
		}
		live[s-1] = true
		free++
		if free > int(q.slots) {
			t.Fatal("free list is cyclic")
		}
	}
	if free+len(keys) != int(q.slots) {
		t.Fatalf("slab has %d slots: %d live + %d free", q.slots, len(keys), free)
	}
}

// queueAt maps a push op's 5-bit class to a time at or after now: classes
// 0-3 are 0-3 ns past now (heavy ties on t, class 0 lands in now), classes
// 4-27 spread log-uniformly up to 2^40 ns past now with jitter from i, so
// every bucket up to 41 is reached, and classes 28-30 are one before, at
// and one after the start of the wheel window after now's.
func queueAt(class byte, i int, now Time) Time {
	switch {
	case class < 4:
		return now + Time(class)
	case class < 28:
		s := uint(class-4) * 40 / 23
		return now + (Time(1)<<s | Time(uint64(i)*0x9E3779B97F4A7C15>>(64-s)))
	}
	return now | (wheelSlots - 1) + Time(class-28)
}

// FuzzEventHeap drives random interleavings of push, pop and peek on the
// event queue and checks every pop and peek against a reference: the
// pending keys sorted by the ordering key, a spawn burst or global run
// expanded into its members. An op byte from 0xF8 up files a burst of 2 to
// 6 members from origin b&3, at last (bit 2 clear) or one nanosecond
// later; one from 0xF0 to 0xF7 files a global run over origins 0 to b&3,
// all at one seq past every origin's, at last or one nanosecond later, as
// one entry extended member by member; any other byte with the top bit set
// pops; otherwise its low two bits pick one of
// four origins with per-origin seq counters, as the engine assigns them
// (heavy ties on seq across origins), and the next five bits pick a time
// class (queueAt) — except class 31: peek the head, then push at a time at
// or after last but below it. Random inputs keep the pending set churning,
// so slab slots, their links and wheel slots are reused many times; one
// seed first builds a deep queue, others cross wheel windows.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4, 0x80, 4, 0x80, 4, 0x80, 0x80})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 2000} {
		ops := make([]byte, n)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		f.Add(ops)
	}
	deep := make([]byte, 2048) // 1024 pushes, then 1024 pops
	for i := range deep {
		deep[i] = byte(rng.Intn(128))
		if i >= 1024 {
			deep[i] = 0x80
		}
	}
	f.Add(deep)
	barrier := make([]byte, 1024) // far keys, then peek-and-push under them
	for i := range barrier {
		barrier[i] = byte(rng.Intn(4)) | byte(24+rng.Intn(4))<<2
		if i%3 == 2 {
			barrier[i] = 31<<2 | byte(rng.Intn(4))
		}
		if i%5 == 4 {
			barrier[i] = 0x80
		}
	}
	f.Add(barrier)
	// A burst pushed in key order at one instant (a sorted run), a few pops
	// from its front, a key below its tail (the run becomes a heap), peeks
	// and pops interleaved until it drains, then a same-instant push-push-pop
	// stream that makes the run slide down over its popped prefix.
	var run []byte
	for i := 0; i < 40; i++ {
		run = append(run, 0)
	}
	run = append(run, 0x80, 0x80, 0x80, 0x80, 0x80, 1)
	for i := 0; i < 20; i++ {
		run = append(run, 0x80, 31<<2|byte(i%4))
	}
	for i := 0; i < 60; i++ {
		run = append(run, 0x80)
	}
	for i := 0; i < 200; i++ {
		run = append(run, 2, 2, 0x80)
	}
	f.Add(run)
	// Keys one before, at and one after the next wheel window, from t = 0
	// and again from a far time: the window's last slot pops first, then
	// the bucket holding the next window cascades its later key into the
	// wheel.
	f.Add([]byte{29 << 2, 30<<2 | 1, 28<<2 | 2, 27<<2 | 3, 0x80, 0x80, 0x80, 0x80,
		29 << 2, 30<<2 | 1, 28<<2 | 2, 0x80, 0x80, 0x80})
	// One wheel slot crowded with keys of mixed seq and origin, pushed out of
	// key order; every pop peeks the head first, the first one inside the
	// wheel.
	var crowd []byte
	for i := 0; i < 48; i++ {
		crowd = append(crowd, 28<<2|byte(3-i%4))
		if i%5 == 0 {
			crowd = append(crowd, 28<<2|byte(i%2))
		}
	}
	for i := 0; i < 70; i++ {
		crowd = append(crowd, 0x80)
	}
	f.Add(crowd)
	// The barrier's peek-then-push under a head that sits in the wheel.
	var under []byte
	for i := 0; i < 64; i++ {
		under = append(under, 10<<2|byte(i%4), 31<<2|byte((i+1)%4), 31<<2|byte((i+2)%4))
		if i%2 == 1 {
			under = append(under, 0x80, 0x80)
		}
	}
	f.Add(under)
	// Bursts with other keys between their members: a burst at last, keys
	// from other origins whose seqs fall inside its members' (the sorted
	// run turns into a heap and the burst key sifts down as it advances),
	// two bursts back to back, a burst one nanosecond ahead that refills
	// into a run already holding keys, and pops throughout.
	var bursts []byte
	for r := 0; r < 6; r++ {
		bursts = append(bursts, 0xF8|byte(r%4), 1, 2, 3, 0x80, 0xF9, 0xFC|byte(r%4), 0, 0x80, 3, 0x80, 0x80)
	}
	for i := 0; i < 80; i++ {
		bursts = append(bursts, 0x80, byte(i%4))
	}
	f.Add(bursts)
	// Global runs among bursts and single keys, at last and one nanosecond
	// later, popped partway before more keys arrive.
	var runs []byte
	for r := 0; r < 8; r++ {
		runs = append(runs, 0xF3, byte(r%4), 0xF7, 0xF8|byte(r%4), 0x80, 0xF1|byte(r%2)<<2, 0x80, 0x80, 2)
	}
	for i := 0; i < 60; i++ {
		runs = append(runs, 0x80)
	}
	f.Add(runs)
	fn := func(any) {}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		var q eventQueue
		var ref []eventKey         // the pending keys, kept sorted
		ids := map[[2]uint64]any{} // (seq, origin) -> the id pushed as arg, or its burst
		var seqs [4]uint64
		var now Time
		entries, maxEntries := 0, 0 // keys filed: a burst is one
		runLast := map[*GlobalRun]int32{}
		file := func(k eventKey) {
			j := sort.Search(len(ref), func(j int) bool { return k.less(ref[j]) })
			ref = append(ref, eventKey{})
			copy(ref[j+1:], ref[j:])
			ref[j] = k
		}
		peek := func() {
			if got, want := q.head(), ref[0]; got.t != want.t || got.seq != want.seq || got.origin != want.origin {
				t.Fatalf("head = %+v, want %+v", got, want)
			}
		}
		pop := func() {
			peek()
			want := ref[0]
			ref = ref[1:]
			gotT, p := q.pop()
			id := ids[[2]uint64{want.seq, uint64(want.origin)}]
			if gotT != want.t || p.arg != id {
				t.Fatalf("pop = t %v payload %+v, want key %+v with %v", gotT, p, want, id)
			}
			switch x := id.(type) {
			case *burst:
				if p.kind != evBurst || p.owner != int32(want.seq-x.seq0) {
					t.Fatalf("burst member %+v popped as %+v, want member %d", want, p, want.seq-x.seq0)
				}
				if want.seq == x.seq0+uint64(x.n)-1 {
					entries--
				}
			case *GlobalRun:
				if p.kind != evRun || p.owner != GlobalOwner {
					t.Fatalf("run member %+v popped as %+v", want, p)
				}
				if want.origin == runLast[x] {
					entries--
					if x.open {
						t.Fatalf("run %+v still open after its last member popped", want)
					}
				}
			default:
				if p.owner != want.origin || p.kind != evArg || p.afn == nil {
					t.Fatalf("pop = t %v payload %+v, want key %+v with id %v", gotT, p, want, id)
				}
				entries--
			}
			now = gotT
		}
		runFn := func() {}
		for i, b := range ops {
			if b >= 0xF0 && b < 0xF8 {
				s := max(seqs[0], seqs[1], seqs[2], seqs[3]) + 1
				r := &GlobalRun{fn: runFn}
				k := eventKey{t: now + Time(b>>2&1), seq: s}
				for o := int32(0); o <= int32(b&3); o++ {
					seqs[o] = s
					k.origin = o
					if o == 0 {
						r.slot = q.put(k, o, evRun, nil, r)
						r.open, r.t, r.seq, r.last = true, k.t, k.seq, o
					} else {
						r.last = o
						q.extendRun(r)
					}
					ids[[2]uint64{k.seq, uint64(o)}] = r
					runLast[r] = o
					file(k)
				}
				entries++
			} else if b >= 0xF8 {
				origin := int32(b & 3)
				n := 2 + i%5
				k := eventKey{t: now + Time(b>>2&1), seq: seqs[origin] + 1, origin: origin}
				seqs[origin] += uint64(n)
				bu := &burst{seq0: k.seq, n: int32(n), owner0: origin, perOwner: 1}
				q.putBurst(k, bu)
				for m := 0; m < n; m++ {
					ids[[2]uint64{k.seq, uint64(origin)}] = bu
					file(k)
					k.seq++
				}
				entries++
			} else if b&0x80 != 0 && len(ref) > 0 {
				pop()
			} else {
				origin := int32(b & 3)
				at := queueAt(b>>2&31, i, now)
				if b>>2&31 == 31 {
					if len(ref) == 0 {
						continue
					}
					peek()
					at = now + Time(uint64(i)*0x9E3779B97F4A7C15%uint64(ref[0].t-now+1))
				}
				seqs[origin]++
				k := eventKey{t: at, seq: seqs[origin], origin: origin}
				ids[[2]uint64{k.seq, uint64(origin)}] = i
				q.push(&event{k, payload{owner: origin, kind: evArg, afn: fn, arg: i}})
				file(k)
				entries++
			}
			maxEntries = max(maxEntries, entries)
			if len(ref) < 64 || i%64 == 0 {
				checkQueue(t, &q)
			}
		}
		for len(ref) > 0 {
			pop()
		}
		checkQueue(t, &q)
		if int(q.slots) != maxEntries {
			t.Fatalf("slab grew to %d slots for at most %d pending entries", q.slots, maxEntries)
		}
	})
}

// TestEventQueueEveryBucket files one key in each of the 51 buckets a
// non-negative time can reach past the wheel, one in each of 12 wheel slots
// and ties at last, and pops them in key order: the lowest bucket cascades
// into the wheel on the way.
func TestEventQueueEveryBucket(t *testing.T) {
	var q eventQueue
	var want []eventKey
	seq := uint64(0)
	for s := 62; s >= -1; s-- {
		at := Time(0)
		if s >= 0 {
			at = Time(1)<<s | Time(s)
		}
		for o := int32(2); o >= 0; o-- {
			seq++
			k := eventKey{t: at, seq: seq, origin: o}
			q.push(&event{k, payload{kind: evFn}})
			want = append(want, k)
		}
	}
	checkQueue(t, &q)
	if want := ^uint64(1<<(wheelBits+1) - 1); q.mask != want {
		t.Fatalf("non-empty buckets %#x, want %#x", q.mask, want)
	}
	for s := 0; s < wheelBits; s++ {
		if slot := 1<<s | s; q.wheel.occ[slot>>6]>>(slot&63)&1 == 0 {
			t.Fatalf("wheel slot %d is empty, want the keys at t=%d", slot, slot)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
	for _, w := range want {
		if h := q.head(); h.t != w.t || h.seq != w.seq || h.origin != w.origin {
			t.Fatalf("head %+v, want %+v", h, w)
		}
		if got, _ := q.pop(); got != w.t {
			t.Fatalf("pop at %v, want %v", got, w.t)
		}
		checkQueue(t, &q)
	}
}

// TestPushBelowLastPanics: a push before the last pop's time breaks the
// queue's monotone contract and must panic, not misfile the key.
func TestPushBelowLastPanics(t *testing.T) {
	var q eventQueue
	q.push(&event{eventKey{t: 10, seq: 1}, payload{kind: evFn}})
	q.push(&event{eventKey{t: 20, seq: 2}, payload{kind: evFn}})
	q.pop()
	q.push(&event{eventKey{t: 10, seq: 3}, payload{kind: evFn}}) // at last: fine
	defer func() {
		if recover() == nil {
			t.Fatal("push below the last pop did not panic")
		}
	}()
	q.push(&event{eventKey{t: 9, seq: 4}, payload{kind: evFn}})
}

// TestPopReleasesPayload: a popped event's slot keeps no reference to its
// closure or argument, so the collector can reclaim them while the slot
// waits for reuse.
func TestPopReleasesPayload(t *testing.T) {
	var q eventQueue
	for i := 0; i < 9; i++ {
		v := i
		q.push(&event{eventKey{t: Time(i % 3), seq: uint64(i + 1)}, payload{kind: evFn, arg: func() { _ = v }}})
	}
	for q.Len() > 0 {
		slot := q.head().slot
		if _, p := q.pop(); p.arg == nil {
			t.Fatal("pop returned an empty payload")
		}
		if p := *q.at(slot); p.afn != nil || p.arg != nil {
			t.Fatalf("slot %d still holds the popped payload: %+v", slot, p)
		}
	}
}

// TestShutdownDropsHeaps: Shutdown releases the event queue's arrays — keys
// at now, wheel, payload slab and its links — whether the engine never
// ran, was cut off by a time limit with events pending, or drained.
func TestShutdownDropsHeaps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit Time // < 0: no run; 0: run to completion
	}{{"never-run", -1}, {"time-limit", 50}, {"drained", 0}} {
		eng := New()
		for o := 0; o < 4; o++ {
			for i := 0; i < 5; i++ {
				eng.AtOn(o, Time(20*i+o), func() {})
			}
		}
		eng.At(30, func() {})
		switch {
		case tc.limit > 0:
			if _, ok := eng.RunUntil(tc.limit).(*TimeLimitError); !ok {
				t.Fatalf("%s: expected a time limit with events pending", tc.name)
			}
		case tc.limit == 0:
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		eng.Shutdown()
		if q := &eng.events; q.now != nil || q.slab != nil || q.wheel != nil || q.links != nil {
			t.Errorf("%s: queue keeps %d keys / %d slots / wheel %p / %d link chunks after Shutdown",
				tc.name, cap(q.now), cap(q.slab), q.wheel, cap(q.links))
		}
	}
}
