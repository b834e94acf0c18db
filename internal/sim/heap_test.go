package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// checkHeap verifies the 4-ary heap property and the slab bookkeeping: every
// key names a distinct live slot, and every slot off the heap is on the free
// list with no payload left in it.
func checkHeap(t *testing.T, h *eventHeap) {
	t.Helper()
	for i := 1; i < len(h.keys); i++ {
		if h.keys[i].less(h.keys[(i-1)/4]) {
			t.Fatalf("heap property broken at %d: %+v under parent %+v", i, h.keys[i], h.keys[(i-1)/4])
		}
	}
	live := make([]bool, len(h.slab))
	for _, k := range h.keys {
		if live[k.slot] {
			t.Fatalf("slot %d held by two keys", k.slot)
		}
		live[k.slot] = true
	}
	free := 0
	for s := h.freeHead; s > 0; s = h.slab[s-1].owner {
		if live[s-1] {
			t.Fatalf("slot %d is both live and free", s-1)
		}
		if p := h.slab[s-1]; p.afn != nil || p.arg != nil || p.kind != 0 {
			t.Fatalf("free slot %d still holds a payload: %+v", s-1, p)
		}
		live[s-1] = true
		free++
		if free > len(h.slab) {
			t.Fatal("free list is cyclic")
		}
	}
	if free+len(h.keys) != len(h.slab) {
		t.Fatalf("slab has %d slots: %d live + %d free", len(h.slab), len(h.keys), free)
	}
}

// FuzzEventHeap drives random interleavings of push and pop and checks every
// pop against a reference: the pending keys sorted by the ordering key. Each
// op byte is either a pop or a push whose time falls in a four-value window
// (heavy ties on t) from one of four origins with per-origin seq counters, as
// the engine assigns them (heavy ties on seq across origins). Random inputs
// keep the pending set small and churning, so slab slots are reused many
// times; one seed first builds a five-level heap.
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
	deep := make([]byte, 2048) // 1024 pushes, then 1024 pops: five levels
	for i := range deep {
		deep[i] = byte(rng.Intn(128)) | byte(i/1024)<<7
	}
	f.Add(deep)
	fn := func(any) {}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		var h eventHeap
		var ref []heapKey          // the pending keys, kept sorted
		ids := map[[2]uint64]int{} // (seq, origin) -> the id pushed as arg
		var seqs [4]uint64
		var now Time
		maxPending := 0
		pop := func() {
			want := ref[0]
			ref = ref[1:]
			gotT, p := h.pop()
			id := ids[[2]uint64{want.seq, uint64(want.origin)}]
			if gotT != want.t || p.arg != id || p.owner != want.origin || p.kind != evArg || p.afn == nil {
				t.Fatalf("pop = t %v payload %+v, want key %+v with id %d", gotT, p, want, id)
			}
			now = gotT
		}
		for i, b := range ops {
			if b&0x80 != 0 && len(ref) > 0 {
				pop()
			} else {
				origin := int32(b & 3)
				seqs[origin]++
				k := heapKey{t: now + Time(b>>2&3), seq: seqs[origin], origin: origin}
				ids[[2]uint64{k.seq, uint64(origin)}] = i
				h.push(&event{k, payload{owner: origin, kind: evArg, afn: fn, arg: i}})
				at := sort.Search(len(ref), func(j int) bool { return k.less(ref[j]) })
				ref = append(ref, heapKey{})
				copy(ref[at+1:], ref[at:])
				ref[at] = k
				if len(ref) > maxPending {
					maxPending = len(ref)
				}
			}
			if len(ref) < 64 || i%64 == 0 {
				checkHeap(t, &h)
			}
		}
		for len(ref) > 0 {
			pop()
		}
		checkHeap(t, &h)
		if len(h.slab) != maxPending {
			t.Fatalf("slab grew to %d slots for at most %d pending events", len(h.slab), maxPending)
		}
	})
}

// TestPopReleasesPayload: a popped event's slot keeps no reference to its
// closure or argument, so the collector can reclaim them while the slot
// waits for reuse.
func TestPopReleasesPayload(t *testing.T) {
	var h eventHeap
	for i := 0; i < 9; i++ {
		v := i
		h.push(&event{heapKey{t: Time(i % 3), seq: uint64(i + 1)}, payload{kind: evFn, arg: func() { _ = v }}})
	}
	for h.Len() > 0 {
		slot := h.head().slot
		if _, p := h.pop(); p.arg == nil {
			t.Fatal("pop returned an empty payload")
		}
		if p := h.slab[slot]; p.afn != nil || p.arg != nil {
			t.Fatalf("slot %d still holds the popped payload: %+v", slot, p)
		}
	}
}

// TestShutdownDropsHeaps: Shutdown releases both heap arrays on the global
// lane and on every shard lane — whether the engine never ran, was cut off
// by a time limit with events pending, or drained.
func TestShutdownDropsHeaps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit Time // < 0: no run; 0: run to completion
	}{{"never-run", -1}, {"time-limit", 50}, {"drained", 0}} {
		for _, shards := range []int{1, 2} {
			eng := New()
			eng.ConfigureShards(shards, 4, func(o int) int { return o % shards }, 10)
			for o := 0; o < 4; o++ {
				for i := 0; i < 5; i++ {
					eng.AtOn(o, Time(20*i+o), func() {})
				}
			}
			eng.At(30, func() {})
			switch {
			case tc.limit > 0:
				if _, ok := eng.RunUntil(tc.limit).(*TimeLimitError); !ok {
					t.Fatalf("%s/shards=%d: expected a time limit with events pending", tc.name, shards)
				}
			case tc.limit == 0:
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
			eng.Shutdown()
			heaps := []*eventHeap{&eng.events}
			for _, ln := range eng.lanes {
				heaps = append(heaps, &ln.heap)
			}
			for i, h := range heaps {
				if h.keys != nil || h.slab != nil {
					t.Errorf("%s/shards=%d: heap %d keeps %d keys / %d slots after Shutdown",
						tc.name, shards, i, cap(h.keys), cap(h.slab))
				}
			}
		}
	}
}
