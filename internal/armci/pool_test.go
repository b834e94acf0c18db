package armci

// Recycling-correctness tests for the hot-path free lists (request and
// pendingSend records) and the lazy allocation slabs — the machinery behind
// the allocs/op contract in docs/SCALING.md. The properties under test are
// the ones that make pooling safe at all: a released record carries no
// aliased state into its next life, releasing twice panics instead of
// silently sharing storage, a record returns to its free list only once
// nothing can reach it (timers, retransmission clones, aggregation batches
// and crash aborts included), and slabs materialize on first touch without
// perturbing results.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"armcivt/internal/ckpt"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

func poolHarness(t *testing.T) *Runtime {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(2, 2)
	cfg.Topology = core.MustNew(core.FCG, 2)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRequestPoolRecycleClearsState(t *testing.T) {
	rt := poolHarness(t)
	req := rt.getReq(0)
	req.kind = opPutV
	req.origin, req.originNode, req.target = 1, 0, 2
	req.buf = append(req.buf, 1, 2, 3)
	req.data = req.buf
	req.segs = append(req.segs, Seg{Off: 4, Len: 8}, Seg{Off: 16, Len: 8})
	req.respBuf = true
	segsCap, bufCap := cap(req.segs), cap(req.buf)

	rt.node(0).putReq(req)
	got := rt.getReq(0)
	if got != req {
		t.Fatal("free list did not recycle the released record")
	}
	if got.kind != opPut || got.data != nil || got.respBuf ||
		got.origin != 0 || got.target != 0 || got.h != nil {
		t.Errorf("recycled record retains state: %+v", got)
	}
	if len(got.segs) != 0 {
		t.Errorf("recycled segs not emptied: %v", got.segs)
	}
	if cap(got.segs) != segsCap {
		t.Errorf("segs backing array not retained: cap %d, want %d", cap(got.segs), segsCap)
	}
	if len(got.buf) != 0 || cap(got.buf) != bufCap {
		t.Errorf("buf not emptied and retained: len %d cap %d, want 0 and %d", len(got.buf), cap(got.buf), bufCap)
	}
	if got.holds != 1 {
		t.Errorf("recycled record starts with %d holds, want 1 (its response's)", got.holds)
	}
}

func TestRequestDoubleReleasePanics(t *testing.T) {
	rt := poolHarness(t)
	req := rt.getReq(0)
	rt.node(0).putReq(req)
	defer func() {
		if recover() == nil {
			t.Error("second putReq did not panic")
		}
	}()
	rt.node(0).putReq(req)
}

func TestRequestReleasePastLastHoldPanics(t *testing.T) {
	rt := poolHarness(t)
	req := rt.getReq(0)
	rt.release(req) // the response's hold: back on the free list
	if n := rt.node(0).nreqFree; n != 1 {
		t.Fatalf("free list holds %d records after the last release, want 1", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("release past the last hold did not panic")
		}
	}()
	rt.release(req)
}

func TestPendingSendPoolRecycleClearsState(t *testing.T) {
	rt := poolHarness(t)
	ns := rt.node(0)
	ps := ns.getPS()
	ps.req = &request{kind: opPut}
	ps.fwdOwner = ns
	ps.fwdUp = &egress{}
	ps.enq = 42
	ns.putPS(ps)
	got := ns.getPS()
	if got != ps {
		t.Fatal("free list did not recycle the released record")
	}
	if got.req != nil || got.fwdOwner != nil || got.fwdUp != nil || got.enq != 0 || got.hasGate {
		t.Errorf("recycled record retains state: %+v", got)
	}
}

func TestPendingSendDoubleReleasePanics(t *testing.T) {
	rt := poolHarness(t)
	ns := rt.node(0)
	ps := ns.getPS()
	ns.putPS(ps)
	defer func() {
		if recover() == nil {
			t.Error("second putPS did not panic")
		}
	}()
	ns.putPS(ps)
}

// reqTracker watches request records in flight through a serial run by
// wrapping the runtime's delivery trampolines: a record arriving at a CHT
// (alone or as a batch sub-op) or delivering a response must not be on a
// free list, and must still carry the operation it carried when last seen
// in flight. A record recycled while a message, inbox or egress queue still
// holds it fails one of the two checks when that stale copy next arrives.
type reqTracker struct {
	t    *testing.T
	live map[*request]reqIdentity // in flight: seen at a CHT, response not yet applied
	seen map[*request]bool
}

type reqIdentity struct {
	h     *Handle
	chunk int32
	rid   uint64
}

func trackReqs(t *testing.T, rt *Runtime) *reqTracker {
	tr := &reqTracker{t: t, live: map[*request]reqIdentity{}, seen: map[*request]bool{}}
	enqueue, resp, respLocal := rt.enqueueFn, rt.respFn, rt.respLocalFn
	rt.enqueueFn = func(arg any, ce bool) {
		for _, sub := range batchSubs(arg.(*request)) {
			tr.check("arrived at a CHT", sub)
			tr.live[sub] = reqIdentity{sub.h, sub.chunk, sub.rid}
			tr.seen[sub] = true
		}
		enqueue(arg, ce)
	}
	rt.respFn = func(arg any, ce bool) {
		tr.responded(arg.(*request))
		resp(arg, ce)
	}
	rt.respLocalFn = func(arg any) {
		tr.responded(arg.(*request))
		respLocal(arg)
	}
	return tr
}

func (tr *reqTracker) check(what string, req *request) {
	if req.freed {
		tr.t.Errorf("request %p %s while on a free list", req, what)
	}
	if was, ok := tr.live[req]; ok && was != (reqIdentity{req.h, req.chunk, req.rid}) {
		tr.t.Errorf("request %p %s carrying another operation: recycled while in flight (was chunk %d rid %x, now chunk %d rid %x)",
			req, what, was.chunk, was.rid, req.chunk, req.rid)
	}
}

func (tr *reqTracker) responded(req *request) {
	tr.check("delivered a response", req)
	delete(tr.live, req)
}

// checkReqPools verifies every node's request free list at the end of a
// run: each entry is a released record (freed, no holds left) listed once,
// and no two entries share a segs or buf backing array — storage a
// retransmission clone aliased with its original would show up here once
// both were released.
func checkReqPools(t *testing.T, rt *Runtime) (free map[*request]bool) {
	t.Helper()
	free = map[*request]bool{}
	arrays := map[any]*request{}
	owns := func(req *request, what string, key any) {
		if other, ok := arrays[key]; ok {
			t.Errorf("free records %p and %p share a %s backing array", other, req, what)
		}
		arrays[key] = req
	}
	for n := range rt.cfg.Nodes {
		depth := 0
		for req := rt.node(n).reqFree; req != nil; req = req.next {
			if free[req] {
				t.Errorf("request %p is on the free lists twice", req)
				break
			}
			free[req] = true
			depth++
			if !req.freed || req.holds != 0 {
				t.Errorf("free-list request %p has freed=%v holds=%d", req, req.freed, req.holds)
			}
			if cap(req.segs) > 0 {
				owns(req, "segs", &req.segs[:1][0])
			}
			if cap(req.buf) > 0 {
				owns(req, "buf", &req.buf[:1][0])
			}
		}
		if depth != rt.node(n).nreqFree {
			t.Errorf("node %d free list links %d records, depth count says %d", n, depth, rt.node(n).nreqFree)
		}
	}
	return free
}

// TestPoolLateTimerLeavesNewOccupantUntouched: a chunk's response usually
// beats its timer, and the timer still holds the record when it fires. A
// record recycled at completion would be the next operation's by then, and
// the late timer would time that operation out and retransmit it. The
// second fetch-&-add is issued just before the first one's timer fires, so
// it is in flight at that instant.
func TestPoolLateTimerLeavesNewOccupantUntouched(t *testing.T) {
	const timeout = 50 * sim.Microsecond
	eng := sim.New()
	cfg := DefaultConfig(2, 1)
	cfg.Topology = core.MustNew(core.FCG, 2)
	cfg.RequestTimeout = timeout
	rt := MustNew(eng, cfg)
	tr := trackReqs(t, rt)
	rt.Alloc("c", 8)
	var olds [2]int64
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		t0 := r.Now()
		olds[0] = r.FetchAdd(1, "c", 0, 1)
		rtt := r.Now() - t0
		if rtt >= timeout/2 {
			t.Fatalf("round trip %v too slow for a %v timeout", rtt, timeout)
		}
		if n := rt.node(0).nreqFree; n != 0 {
			t.Errorf("%d records recycled while the first chunk's timer is still armed", n)
		}
		r.Sleep(timeout - rtt - sim.Microsecond)
		olds[1] = r.FetchAdd(1, "c", 0, 1)
	})
	if olds != [2]int64{0, 1} {
		t.Errorf("fetch-&-add old values %v, want [0 1]", olds)
	}
	if got := GetInt64(rt.Memory(1, "c"), 0); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	if s := rt.Stats(); s.Timeouts != 0 || s.Retries != 0 || s.DupDrops != 0 {
		t.Errorf("a late timer acted on a completed chunk: timeouts=%d retries=%d dups=%d",
			s.Timeouts, s.Retries, s.DupDrops)
	}
	if free := checkReqPools(t, rt); len(free) != 2 || len(tr.live) != 0 {
		t.Errorf("%d records released, %d still in flight; want both released", len(free), len(tr.live))
	}
}

// TestPoolRetransmitCloneOwnsStorage parks a vectored accumulate at a failed
// link (both ring arcs down at injection), lets its timer retransmit once the
// long arc repairs, and repairs the short arc later: the clone responds and
// is recycled into the next operations while the original is still parked,
// then the original arrives, is deduplicated, and responds too. Clone and
// original must never share segs or payload storage — the free lists would
// end up holding two records over one backing array — and nothing may
// apply twice.
func TestPoolRetransmitCloneOwnsStorage(t *testing.T) {
	_, rt := faultedRuntime(t, core.FCG, 4, 1, "link:0-1@t=0s@for=2ms,link:0-3@t=0s@for=300us", func(c *Config) {
		c.Fabric.Shape = [3]int{4, 1, 1} // a ring: two arcs from 0 to 1
		c.RequestTimeout = 400 * sim.Microsecond
		c.MaxRetries = 4
	})
	tr := trackReqs(t, rt)
	rt.Alloc("m", 512)
	const iters = 6
	accSegs := []Seg{{Off: 128, Len: 16}, {Off: 256, Len: 16}}
	putSegs := []Seg{{Off: 0, Len: 16}, {Off: 64, Len: 16}}
	var put []byte
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		for i := 0; i < iters; i++ {
			h := r.NbAccV(1, "m", accSegs, 1, []float64{1, 2, 3, 4})
			r.Wait(h)
			if h.Err() != nil {
				t.Fatalf("accumulate %d: %v", i, h.Err())
			}
			put = make([]byte, 32)
			for j := range put {
				put[j] = byte(i*32 + j)
			}
			h = r.NbPutV(1, "m", putSegs, put)
			r.Wait(h)
			if h.Err() != nil {
				t.Fatalf("put %d: %v", i, h.Err())
			}
		}
	})
	s := rt.Stats()
	if s.Retries == 0 || s.DupDrops == 0 {
		t.Fatalf("scenario did not make an original and its clone both reach the target: retries=%d dups=%d", s.Retries, s.DupDrops)
	}
	mem := rt.Memory(1, "m")
	for i, s := range accSegs {
		for b := 0; b < s.Len; b += 8 {
			if got, want := GetFloat64(mem, s.Off+b), float64(iters*(2*i+b/8+1)); got != want {
				t.Errorf("accumulated element at %d = %g, want %g", s.Off+b, got, want)
			}
		}
	}
	if got, want := append(append([]byte(nil), mem[0:16]...), mem[64:80]...), put; string(got) != string(want) {
		t.Errorf("put region % x, want % x", got, want)
	}
	checkReqPools(t, rt)
	if len(tr.live) != 0 {
		t.Errorf("%d records still in flight after the run", len(tr.live))
	}
}

// TestPoolCrashAbortNeverRecyclesReachable crashes a node while every rank,
// the victim's included, keeps a window of accumulates in flight, half of
// them toward node 0, whose CHT is stalled across the crash. The crash fails
// the victim's outstanding chunks while their records still sit in node 0's
// inbox, in egress queues and in fabric messages; the victim's ranks keep
// issuing (and aborting) operations while it is down. Failing a chunk is not
// releasing its record: were one recycled, its stale copy would arrive at a
// CHT or deliver its late response carrying another operation, which the
// tracker reports.
func TestPoolCrashAbortNeverRecyclesReachable(t *testing.T) {
	const nodes, ppn = 16, 2
	victim := 5
	for _, spec := range []string{
		fmt.Sprintf("node:%d@t=150us,cht:0@t=100us@for=400us", victim),
		fmt.Sprintf("node:%d@t=150us@for=300us,cht:0@t=100us@for=400us", victim),
	} {
		t.Run(spec, func(t *testing.T) {
			_, rt := healedRuntime(t, core.MFCG, nodes, ppn, spec, nil)
			tr := trackReqs(t, rt)
			rt.Alloc("m", 8*nodes*ppn)
			var failed int
			runAll(t, rt, func(r *Rank) {
				rng := rand.New(rand.NewSource(int64(r.Rank())))
				for round := 0; round < 12; round++ {
					var hs []*Handle
					for k := 0; k < 4; k++ {
						target := rng.Intn(nodes * ppn)
						if k%2 == 0 {
							target = rng.Intn(ppn) // a rank on node 0
						}
						hs = append(hs, r.NbAcc(target, "m", 8*r.Rank(), 1, []float64{1}))
					}
					r.WaitAll(hs...)
					for _, h := range hs {
						if h.Err() != nil {
							failed++
						}
					}
					r.Sleep(sim.Time(rng.Int63n(int64(20 * sim.Microsecond))))
				}
			})
			if failed == 0 {
				t.Fatal("the crash failed no operation: the scenario tests nothing")
			}
			checkReqPools(t, rt)
			if len(tr.seen) == 0 {
				t.Fatal("no request reached a CHT")
			}
		})
	}
}

// TestPoolAggBatchReleasesEachSubOnce runs pipelined fetch-&-adds through
// aggregation batches, with timeouts off, on, and on with the target's CHT
// stalled long enough that batched sub-ops time out and are retransmitted
// as clones (the originals then arrive as duplicates and respond again).
// Each sub-op's record must be released exactly once: a second release
// panics, and a record never released is missing from the free lists at
// the end, when every operation has completed and every timer has fired.
func TestPoolAggBatchReleasesEachSubOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		timeout sim.Time
	}{
		{"no-timeouts", "", 0},
		{"timeouts", "", 100 * sim.Microsecond},
		{"stalled-target", "cht:0@t=0s@for=250us", 100 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			cfg := DefaultConfig(4, 2)
			cfg.Topology = core.MustNew(core.FCG, 4)
			if tc.spec != "" {
				cfg.Faults = faults.NewInjector(eng, 4, faults.MustParseSpec(tc.spec))
			}
			cfg.Agg.Enabled = true
			cfg.RequestTimeout = tc.timeout
			cfg.MaxRetries = 10
			rt := MustNew(eng, cfg)
			tr := trackReqs(t, rt)
			rt.Alloc("ctr", 8)
			const per = 12
			runAll(t, rt, func(r *Rank) {
				if r.Node() == 0 {
					return
				}
				for round := 0; round < 2; round++ {
					var hs []*Handle
					for i := 0; i < per; i++ {
						hs = append(hs, r.NbFetchAdd(0, "ctr", 0, 1))
					}
					r.WaitAll(hs...)
					for _, h := range hs {
						if h.Err() != nil {
							t.Errorf("fetch-&-add failed: %v", h.Err())
						}
					}
				}
			})
			s := rt.Stats()
			if s.AggBatchedOps == 0 {
				t.Fatal("no sub-op travelled in a batch")
			}
			if tc.spec != "" && s.Retries == 0 {
				t.Fatal("the stalled target caused no retransmission")
			}
			if got, want := GetInt64(rt.Memory(0, "ctr"), 0), int64(3*2*2*per); got != want {
				t.Errorf("counter = %d, want %d", got, want)
			}
			free := checkReqPools(t, rt)
			for req := range tr.seen {
				if !free[req] {
					t.Errorf("request %p travelled but was never released", req)
				}
			}
			if len(tr.live) != 0 {
				t.Errorf("%d records still in flight after the run", len(tr.live))
			}
		})
	}
}

func TestSlabsMaterializeLazily(t *testing.T) {
	rt := poolHarness(t)
	rt.Alloc("m", 256)
	a := rt.alloc("m")
	if a.tab != nil {
		t.Fatal("Alloc built a per-rank table")
	}
	// A one-page allocation is flat from its first touch.
	a.write(1, 0, []byte{7})
	s := a.entry(1, false).flat
	if len(s) != 256 || s[0] != 7 {
		t.Fatalf("rank 1 slab = len %d, want 256 bytes starting with 7", len(s))
	}
	if again := rt.Memory(1, "m"); &again[0] != &s[0] {
		t.Error("Memory returned a different backing array than the first touch")
	}
	for _, rank := range []int{0, 2, 3} {
		if e := a.entry(rank, false); e.flat != nil || e.paged != nil {
			t.Errorf("touching rank 1 materialized rank %d", rank)
		}
	}

	// A multi-page allocation is paged until Memory flattens it: the
	// flattened slab carries the pages written before it.
	rt.Alloc("big", 3*pageSize)
	b := rt.alloc("big")
	b.read(2, 0, make([]byte, 8))
	if b.tab != nil {
		t.Fatal("a read of untouched memory built a per-rank table")
	}
	b.write(2, pageSize-1, []byte{1, 2})
	if e := b.entry(2, false); e.flat != nil || e.paged.carved != 2 {
		t.Fatal("a paged write across a boundary did not materialize exactly its two pages")
	}
	flat := rt.Memory(2, "big")
	if flat[pageSize-1] != 1 || flat[pageSize] != 2 {
		t.Fatalf("flattened slab lost the paged bytes: % x", flat[pageSize-1:pageSize+1])
	}
	if b.entry(2, false).paged != nil {
		t.Error("flattening kept the rank's page table")
	}
	b.write(2, 2*pageSize, []byte{3})
	if flat[2*pageSize] != 3 {
		t.Error("a write after flattening did not land in the slab")
	}
}

// TestSlabGrowthAcrossPageBoundaries drives traffic between opposite ranks
// so slabs and pages materialize on first remote touch, then checks the
// data landed intact: lazy growth must be invisible to the protocol. The
// paged allocation's writes and fetch-adds straddle page boundaries, and
// its checkpoint digest must be the same on a rerun and across a flatten.
func TestSlabGrowthAcrossPageBoundaries(t *testing.T) {
	const peerOff = 8 // the diametrically opposite rank
	var digest uint64
	for run := 0; run < 2; run++ {
		eng := sim.New()
		cfg := DefaultConfig(16, 1)
		cfg.Topology = core.MustNew(core.Hypercube, 16)
		rt, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Alloc("m", 16)
		rt.Alloc("p", 3*pageSize)
		if err := rt.Run(func(r *Rank) {
			// Every rank writes its id into the opposite rank's slab, a
			// 64-byte run across the first page boundary into its paged
			// allocation, and adds its id to a word across the second.
			peer := (r.Rank() + peerOff) % 16
			r.Put(peer, "m", 0, []byte{byte(r.Rank())})
			r.Put(peer, "p", pageSize-32, bytes.Repeat([]byte{byte(r.Rank())}, 64))
			r.FetchAdd(peer, "p", 2*pageSize-4, int64(r.Rank())<<32|1)
			r.Fence()
		}); err != nil {
			t.Fatal(err)
		}
		a, p := rt.alloc("m"), rt.alloc("p")
		if got := p.residentPages(); got != 16*3 {
			t.Errorf("run %d: %d pages materialized, want 3 per rank", run, got)
		}
		var h uint64
		for rank := 0; rank < 16; rank++ {
			want := byte((rank + peerOff) % 16)
			if got := a.entry(rank, false).flat[0]; got != want {
				t.Errorf("run %d rank %d slab[0] = %d, want %d", run, rank, got, want)
			}
			if rank == 8 {
				h = p.digest(ckpt.MixInit) // half the ranks flattened, half paged
			}
			mem := rt.Memory(rank, "p")
			if span := mem[pageSize-32 : pageSize+32]; !bytes.Equal(span, bytes.Repeat([]byte{want}, 64)) {
				t.Errorf("run %d rank %d straddling put = % x", run, rank, span)
			}
			if got := GetInt64(mem, 2*pageSize-4); got != int64(want)<<32|1 {
				t.Errorf("run %d rank %d straddling word = %#x", run, rank, got)
			}
		}
		if after := p.digest(ckpt.MixInit); after != h {
			t.Errorf("run %d: flattening moved the digest %x -> %x", run, h, after)
		}
		if run == 0 {
			digest = h
		} else if h != digest {
			t.Errorf("rerun: digest %x, first run %x", h, digest)
		}
	}
}

// TestGetBurstRecordBytes is the deterministic gate for the host bytes a get
// burst holds per chunk in flight. It runs a reduced copy of app_dft's
// end-of-iteration read: MFCG 32 x 12, every rank issues 12 strided pooled
// gets at one instant and only then waits, so the burst's chunks are all in
// flight at once. Credits are ample (no issue blocks: CreditWaits is
// asserted 0), which makes that instant the peak, read exactly one
// nanosecond after it, before any response can return. The bytes the
// runtime's slabs carved for request records and pooled handles, divided by
// that peak, must stay within the compact layouts: 200 B per request record
// and 144 B per handle (the 304 B and 184 B layouts before them read 304
// and 184). A pool that over-carved, or a record that grew, fails here.
func TestGetBurstRecordBytes(t *testing.T) {
	const (
		nodes, ppn, gets = 32, 12, 12
		burstAt          = 100 * sim.Microsecond
		reqBudget        = 200 // bytes per chunk in flight
		handleBudget     = 144
	)
	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(core.MFCG, nodes)
	cfg.BufsPerProc = 256
	eng := sim.New()
	rt := MustNew(eng, cfg)
	rt.Alloc("fock", 256)
	rt.Start(func(r *Rank) {
		r.Sleep(burstAt - r.Now())
		p := Pool(r)
		hs := p.Handles()
		for k := 0; k < gets; k++ {
			// One owner on each of the 12 nodes after this one: every
			// get is remote, so none completes at issue.
			owner := (r.Node()+1+k)%nodes*ppn + k
			hs = append(hs, p.NbGetS(owner, "fock", 8*(r.Rank()%4), 16, 48, 4))
		}
		for _, h := range hs {
			r.Wait(h)
		}
		for _, h := range hs {
			p.Release(h)
		}
		p.KeepHandles(hs)
	})
	liveReqs, liveHandles := -1, -1
	eng.At(burstAt+1, func() {
		liveReqs = rt.slabs.nreqs
		for n := range rt.cfg.Nodes {
			liveReqs -= rt.node(n).nreqFree
		}
		liveHandles = rt.slabs.nhandles
		for i := range rt.ranks {
			if sc := rt.ranks[i].pool; sc != nil {
				for h := sc.free; h != nil; h = h.next {
					liveHandles--
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	const burst = nodes * ppn * gets
	if st.CreditWaits != 0 || liveReqs != burst || liveHandles != burst {
		t.Fatalf("burst not fully in flight at once: %d credit waits, %d request records and %d handles live, want 0, %d and %d",
			st.CreditWaits, liveReqs, liveHandles, burst, burst)
	}
	if st.Completions != burst {
		t.Fatalf("%d chunks completed, want %d", st.Completions, burst)
	}
	reqPer := float64(rt.slabs.nreqs) * float64(unsafe.Sizeof(request{})) / burst
	handlePer := float64(rt.slabs.nhandles) * float64(unsafe.Sizeof(Handle{})) / burst
	t.Logf("per chunk in flight: %.1f B of request records, %.1f B of handles", reqPer, handlePer)
	if reqPer > reqBudget {
		t.Errorf("request records: %.1f B carved per chunk in flight, budget %d B", reqPer, reqBudget)
	}
	if handlePer > handleBudget {
		t.Errorf("handles: %.1f B carved per chunk in flight, budget %d B", handlePer, handleBudget)
	}
}
