package armci

// Recycling tests for pooled handles, the completion records of blocking
// calls: a handle returns to its rank's free list only once neither the rank
// nor any request record can still reach it (docs/SCALING.md, "Free lists
// and the allocs/op contract").

import (
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// poolHandles counts the pooled handles on rank r's free and held lists,
// checking each free one is released and has no holds left.
func poolHandles(t *testing.T, r *Rank) (free, held int) {
	t.Helper()
	sc := r.pool
	if sc == nil {
		return 0, 0
	}
	for h := sc.free; h != nil; h = h.next {
		if !h.freed || h.holds != 0 {
			t.Errorf("free-list handle %p has freed=%v holds=%d", h, h.freed, h.holds)
		}
		free++
	}
	for h := sc.held; h != nil; h = h.next {
		held++
	}
	return free, held
}

// TestPoolHandleLateResponseMissesNextOp races every fetch-&-add's
// retransmission against its original response: the timer fires before the
// first response is due, so each operation completes on one response while
// a clone is still on its way back. The rank issues the next fetch-&-add at
// once. Had the handle been recycled when the rank read it, the next
// operation would reuse it and the late response would complete that
// operation with the previous one's old value. The clone's hold on the
// handle keeps it off the free list until that response has arrived.
func TestPoolHandleLateResponseMissesNextOp(t *testing.T) {
	const ops = 12
	eng := sim.New()
	cfg := DefaultConfig(2, 1)
	cfg.Topology = core.MustNew(core.FCG, 2)
	cfg.RequestTimeout = 2 * sim.Microsecond
	rt := MustNew(eng, cfg)
	tr := trackReqs(t, rt)
	rt.Alloc("c", 8)
	var olds []int64
	var rtt sim.Time // the first operation's, which nothing can race
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		for i := 0; i < ops; i++ {
			t0 := r.Now()
			olds = append(olds, r.FetchAdd(1, "c", 0, 1))
			if i == 0 {
				rtt = r.Now() - t0
			}
		}
	})
	for i, old := range olds {
		if old != int64(i) {
			t.Fatalf("fetch-&-add %d returned %d, want %d (a late response completed a later operation): %v", i, old, i, olds)
		}
	}
	if rtt <= cfg.RequestTimeout {
		t.Fatalf("round trip %v does not outlast the %v timeout: no retransmission races its original", rtt, cfg.RequestTimeout)
	}
	s := rt.Stats()
	if s.Retries == 0 || s.DupDrops == 0 || s.Failures != 0 {
		t.Fatalf("want raced retransmissions and no failures: retries=%d dups=%d failures=%d", s.Retries, s.DupDrops, s.Failures)
	}
	if got := GetInt64(rt.Memory(1, "c"), 0); got != ops {
		t.Errorf("counter = %d, want %d", got, ops)
	}
	free, held := poolHandles(t, &rt.ranks[0])
	if held != 0 || free == 0 {
		t.Errorf("after the run: %d handles held, %d free; want none held and the late responses' handles recycled", held, free)
	}
	if free >= ops {
		t.Errorf("%d handles for %d operations: none was reused", free, ops)
	}
	checkReqPools(t, rt)
	if len(tr.live) != 0 {
		t.Errorf("%d records still in flight after the run", len(tr.live))
	}
}

// TestPoolHandleReusedWhenNothingHoldsIt: with no timer and no clone, a
// blocking call's handle is back on the free list when the call returns, so
// the next blocking call takes the same one and the result buffer it keeps.
func TestPoolHandleReusedWhenNothingHoldsIt(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	rt.Alloc("m", 64)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		h := r.await(r.get(1, "m", 0, 32, true))
		buf := &h.data[0]
		r.release(h)
		r.FetchAdd(1, "m", 0, 1)
		r.PutV(1, "m", []Seg{{Off: 8, Len: 8}}, make([]byte, 8))
		if got := r.Get(1, "m", 0, 32); &got[0] == buf {
			t.Error("Get returned the handle's own result buffer, not a fresh copy")
		}
		h2 := r.await(r.get(1, "m", 0, 16, true))
		if h2 != h || &h2.data[0] != buf {
			t.Errorf("second get took handle %p (buffer %p), want the recycled %p (buffer %p)", h2, &h2.data[0], h, buf)
		}
		r.release(h2)
		if free, held := poolHandles(t, r); free != 1 || held != 0 {
			t.Errorf("%d handles free, %d held; want one free", free, held)
		}
	})
}

func TestPoolHandleDoubleReleasePanics(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		h := r.handle(0, 0, true)
		r.release(h)
		defer func() {
			if recover() == nil {
				t.Error("second release did not panic")
			}
		}()
		r.release(h)
	})
}

// TestPoolHandleCrashFailsHeld: a crash of the origin fails the pooled
// handle a blocked call waits on at the crash instant, as it fails the
// handles Nb* calls returned, not when the request timer next fires.
func TestPoolHandleCrashFailsHeld(t *testing.T) {
	const crash = 20 * sim.Microsecond
	_, rt := faultedRuntime(t, core.FCG, 2, 1, "cht:1@t=0s,node:0@t=20us", nil)
	rt.Alloc("m", 8)
	var err error
	var woke sim.Time
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		h := r.await(r.fetchAdd(1, "m", 0, 1, true))
		err, woke = h.Err(), r.Now()
		r.release(h)
	})
	if _, ok := err.(*NodeFailedError); !ok {
		t.Fatalf("blocked fetch-&-add failed with %v, want *NodeFailedError", err)
	}
	if woke != crash {
		t.Errorf("blocked fetch-&-add woke at %v, want the crash instant %v", woke, crash)
	}
}
