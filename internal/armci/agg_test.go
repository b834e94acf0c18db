package armci

import (
	"bytes"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// aggRuntime builds a runtime with aggregation (and optionally adaptive
// credits) enabled on the given topology.
func aggRuntime(t *testing.T, kind core.Kind, nodes, ppn int, adaptive bool) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(kind, nodes)
	cfg.Agg.Enabled = true
	cfg.Adaptive.Enabled = adaptive
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rt
}

// TestAggNbPutBatchesAndApplies checks the origin-side path: a run of small
// nonblocking puts to one remote target coalesces into batch packets, every
// byte still lands, and completion fires only after the flush.
func TestAggNbPutBatchesAndApplies(t *testing.T) {
	_, rt := aggRuntime(t, core.FCG, 4, 2, false)
	rt.Alloc("a", 4096)
	const nops = 12
	var putRequests uint64
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 2 { // node 1 -> node 0, remote
			return
		}
		var hs []*Handle
		for i := 0; i < nops; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 16)
			hs = append(hs, r.NbPut(0, "a", 16*i, data))
		}
		r.WaitAll(hs...)
		putRequests = rt.Stats().Requests
		for i := 0; i < nops; i++ {
			got := r.Get(0, "a", 16*i, 16)
			want := bytes.Repeat([]byte{byte(i + 1)}, 16)
			if !bytes.Equal(got, want) {
				t.Errorf("op %d: got % x, want % x", i, got[:4], want[:4])
			}
		}
	})
	s := rt.Stats()
	if s.AggBatches == 0 {
		t.Fatalf("no batch packets injected (stats: %+v)", s)
	}
	if s.AggBatchedOps < nops {
		t.Errorf("AggBatchedOps = %d, want >= %d", s.AggBatchedOps, nops)
	}
	// nops puts should collapse to far fewer request packets than one each.
	if putRequests >= nops {
		t.Errorf("put requests = %d, want < %d (batching should collapse them)", putRequests, nops)
	}
}

// TestAggMixedOpsOrderPreserved interleaves batchable and non-batchable
// operations to the same target: the flush-before-send rule must keep the
// final value of each cell equal to the program-order result.
func TestAggMixedOpsOrderPreserved(t *testing.T) {
	_, rt := aggRuntime(t, core.FCG, 2, 1, false)
	rt.Alloc("a", 1024)
	big := bytes.Repeat([]byte{0xAA}, 8192) // exceeds the 4096 threshold
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 1 {
			return
		}
		rt.Alloc("big", len(big))
		r.NbPut(0, "a", 0, []byte{1, 2, 3, 4}) // buffered
		r.Put(0, "big", 0, big)                // not batchable: must flush first
		r.NbPut(0, "a", 0, []byte{9, 9, 9, 9}) // buffered again
		r.Fence()
		got := r.Get(0, "a", 0, 4)
		if !bytes.Equal(got, []byte{9, 9, 9, 9}) {
			t.Errorf("final value % x, want 09 09 09 09", got)
		}
	})
}

// TestAggFetchAddBatchesAtomically hammers one remote counter with
// nonblocking fetch-&-adds from several ranks: each increment must apply
// exactly once and each rank must see a distinct old value per op.
func TestAggFetchAddBatchesAtomically(t *testing.T) {
	_, rt := aggRuntime(t, core.FCG, 4, 2, false)
	rt.Alloc("ctr", 8)
	const per = 8
	seen := map[int64]int{}
	runAll(t, rt, func(r *Rank) {
		if r.Node() == 0 {
			return
		}
		var hs []*Handle
		for i := 0; i < per; i++ {
			hs = append(hs, r.NbFetchAdd(0, "ctr", 0, 1))
		}
		r.WaitAll(hs...)
		for _, h := range hs {
			seen[h.Old()]++
		}
	})
	want := int64(3 * 2 * per) // nodes 1-3, 2 ranks each
	got := GetInt64(rt.Memory(0, "ctr"), 0)
	if got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	for old, n := range seen {
		if n != 1 {
			t.Errorf("old value %d returned %d times, want exactly once", old, n)
		}
	}
	if rt.Stats().AggBatches == 0 {
		t.Error("expected fetch-&-add traffic to batch")
	}
}

// TestAggEgressCoalescingUnderContention checks the credit boundary on a
// forwarding topology: blocking ops from every node funnel through shared
// intermediate edges toward one hot node, those edges' credits saturate,
// and parked forwards must merge so the backlog moves in fewer packets.
// (On FCG, blocking traffic drains parked sends one ack at a time and the
// credit boundary rarely fires; the funnel is what creates depth.)
func TestAggEgressCoalescingUnderContention(t *testing.T) {
	run := func(enabled bool) Stats {
		eng := sim.New()
		cfg := DefaultConfig(16, 4)
		cfg.Topology = core.MustNew(core.MFCG, 16)
		cfg.BufsPerProc = 1 // tiny pools: 4 credits per edge
		cfg.Agg.Enabled = enabled
		rt := MustNew(eng, cfg)
		rt.Alloc("ctr", 8)
		if err := rt.Run(func(r *Rank) {
			if r.Node() == 0 {
				return
			}
			for i := 0; i < 10; i++ {
				r.FetchAdd(0, "ctr", 0, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Stats()
	}
	off := run(false)
	on := run(true)
	if on.AggBatches == 0 {
		t.Fatalf("no coalescing under contention (stats: %+v)", on)
	}
	if on.Requests >= off.Requests {
		t.Errorf("aggregation did not reduce request packets: on=%d off=%d",
			on.Requests, off.Requests)
	}
}

// TestAggForwardedBatchOnMFCG sends batches across a forwarding topology:
// intermediate CHTs must forward the packet intact and the target must
// still apply every sub-op.
func TestAggForwardedBatchOnMFCG(t *testing.T) {
	_, rt := aggRuntime(t, core.MFCG, 16, 2, false)
	rt.Alloc("a", 4096)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != rt.NRanks()-1 {
			return
		}
		var hs []*Handle
		for i := 0; i < 10; i++ {
			hs = append(hs, r.NbPut(0, "a", 8*i, []byte{byte(i), byte(i), byte(i), byte(i), 0, 0, 0, byte(i)}))
		}
		r.WaitAll(hs...)
	})
	mem := rt.Memory(0, "a")
	for i := 0; i < 10; i++ {
		if mem[8*i] != byte(i) || mem[8*i+7] != byte(i) {
			t.Errorf("sub-op %d not applied: mem[%d]=%d", i, 8*i, mem[8*i])
		}
	}
	if rt.Stats().AggBatches == 0 {
		t.Error("expected batches on the forwarding path")
	}
}

// TestAggDisabledIsBitIdentical guards the zero-value contract: with Agg
// and Adaptive off, virtual time and counters must exactly match a build
// of the runtime that never heard of aggregation.
func TestAggDisabledIsBitIdentical(t *testing.T) {
	run := func() (sim.Time, Stats) {
		eng := sim.New()
		cfg := DefaultConfig(8, 2)
		cfg.Topology = core.MustNew(core.MFCG, 8)
		rt := MustNew(eng, cfg)
		rt.Alloc("a", 1024)
		if err := rt.Run(func(r *Rank) {
			for i := 0; i < 4; i++ {
				r.Put((r.Rank()+5)%rt.NRanks(), "a", 0, []byte{1, 2, 3})
				r.FetchAdd(0, "a", 8, 1)
			}
			r.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return eng.Now(), rt.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("disabled runtime not deterministic: %v/%v vs %v/%v", t1, s1, t2, s2)
	}
	if s1.AggBatches != 0 || s1.CreditShifts != 0 {
		t.Errorf("aggregation/adaptive counters nonzero while disabled: %+v", s1)
	}
}

// TestAdaptiveShiftsUnderHotSpot drives a hot-spot pattern with adaptive
// credits on: shifts must occur, totals must stay invariant per node, and
// every edge must stay within adaptBounds.
func TestAdaptiveShiftsUnderHotSpot(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(8, 4)
	cfg.Topology = core.MustNew(core.FCG, 8)
	cfg.BufsPerProc = 1 // 4 buffers per in-edge: easy to saturate
	cfg.Adaptive.Enabled = true
	rt := MustNew(eng, cfg)
	rt.Alloc("ctr", 8)
	if err := rt.Run(func(r *Rank) {
		if r.Node() == 0 {
			return
		}
		for i := 0; i < 30; i++ {
			r.FetchAdd(0, "ctr", 0, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.CreditShifts == 0 {
		t.Fatalf("no credit shifts under hot spot (stats: %+v)", s)
	}
	pool := cfg.PPN * cfg.BufsPerProc
	floor, ceiling := rt.cfg.adaptBounds()
	for n := range rt.nodes {
		ns := &rt.nodes[n]
		if ns.inCap == nil {
			continue
		}
		total := 0
		for i, cap := range ns.inCap {
			total += cap
			if cap < floor || cap > ceiling {
				t.Errorf("node %d in-edge %d capacity %d outside [%d,%d]",
					ns.id, ns.nbrs[i], cap, floor, ceiling)
			}
		}
		if want := len(ns.nbrs) * pool; total != want {
			t.Errorf("node %d total in-edge capacity %d, want %d (memory invariant)",
				ns.id, total, want)
		}
	}
	// The counter must still be exact: shifting credits moves flow control,
	// never data.
	if got, want := GetInt64(rt.Memory(0, "ctr"), 0), int64(7*4*30); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}

// TestAggWithFaultsRetriesPerSub runs aggregated traffic over a faulted
// link: per-sub rids must keep at-most-once apply through timeouts and
// retransmissions.
func TestAggWithFaultsRetriesPerSub(t *testing.T) {
	spec, err := faults.ParseSpec("link:0-1@t=0s@for=300us")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	cfg := DefaultConfig(4, 2)
	cfg.Topology = core.MustNew(core.FCG, 4)
	cfg.Faults = faults.NewInjector(eng, 4, spec)
	cfg.Agg.Enabled = true
	cfg.Adaptive.Enabled = true
	rt := MustNew(eng, cfg)
	rt.Alloc("ctr", 8)
	const per = 10
	if err := rt.Run(func(r *Rank) {
		if r.Node() == 0 {
			return
		}
		var hs []*Handle
		for i := 0; i < per; i++ {
			hs = append(hs, r.NbFetchAdd(0, "ctr", 0, 1))
		}
		r.WaitAll(hs...)
		for _, h := range hs {
			if h.Err() != nil {
				t.Errorf("rank %d: unexpected failure: %v", r.Rank(), h.Err())
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := GetInt64(rt.Memory(0, "ctr"), 0), int64(3*2*per); got != want {
		t.Errorf("counter = %d, want %d (at-most-once violated under faults)", got, want)
	}
}

// TestAggDeterminism runs the same aggregated+adaptive hot-spot twice and
// demands identical virtual time and stats.
func TestAggDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats) {
		eng := sim.New()
		cfg := DefaultConfig(8, 2)
		cfg.Topology = core.MustNew(core.CFCG, 8)
		cfg.Agg.Enabled = true
		cfg.Adaptive.Enabled = true
		cfg.BufsPerProc = 1
		rt := MustNew(eng, cfg)
		rt.Alloc("a", 4096)
		if err := rt.Run(func(r *Rank) {
			if r.Node() == 0 {
				return
			}
			var hs []*Handle
			for i := 0; i < 10; i++ {
				hs = append(hs, r.NbPut(0, "a", 8*(r.Rank()%4), []byte{1, 2, 3, 4}))
				hs = append(hs, r.NbFetchAdd(0, "a", 4088, 1))
			}
			r.WaitAll(hs...)
		}); err != nil {
			t.Fatal(err)
		}
		return eng.Now(), rt.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("virtual time differs across runs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("stats differ across runs:\n%+v\n%+v", s1, s2)
	}
}

// TestAggConfigDefaultsAndValidation covers the switches' defaulting: a
// zero-valued config leaves both engines off, enabling them validates with
// the defaulted pool, and the adaptive bounds follow PPN*BufsPerProc — half
// the pool (at least one buffer) to twice it.
func TestAggConfigDefaultsAndValidation(t *testing.T) {
	off, err := DefaultConfig(4, 2).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if off.Agg.Enabled || off.Adaptive.Enabled {
		t.Errorf("zero-valued switches armed an engine: agg %v, adaptive %v", off.Agg.Enabled, off.Adaptive.Enabled)
	}
	cfg := Config{Nodes: 4, PPN: 2, Agg: AggregationConfig{Enabled: true}, Adaptive: AdaptiveConfig{Enabled: true}}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if floor, ceiling := c.adaptBounds(); floor != 4 || ceiling != 16 {
		t.Errorf("adaptive bounds with the default pool of 8 = [%d,%d], want [4,16]", floor, ceiling)
	}
	c.BufsPerProc = 1
	c.PPN = 1
	if floor, ceiling := c.adaptBounds(); floor != 1 || ceiling != 2 {
		t.Errorf("adaptive bounds with a one-buffer pool = [%d,%d], want [1,2]", floor, ceiling)
	}
}
