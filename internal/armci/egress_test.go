package armci

import (
	"slices"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// egressHarness builds a 2-node FCG runtime with a 2-credit pool and returns
// the egress from node 0 to node 1.
func egressHarness(t *testing.T) (*sim.Engine, *Runtime, *egress) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(2, 2)
	cfg.BufsPerProc = 1 // pool capacity = PPN * 1 = 2
	cfg.Topology = core.MustNew(core.FCG, 2)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 1024)
	return eng, rt, rt.egressTo(0, 1)
}

func mkReq(rt *Runtime, h *Handle) *request {
	return &request{
		kind: opPut, origin: 0, originNode: 0, target: 2, // rank 2 = node 1
		alloc: "m", off: 0, data: []byte{1}, wire: headerBytes + 1, h: h,
	}
}

func TestEgressImmediateTransmitUsesCredit(t *testing.T) {
	eng, rt, eg := egressHarness(t)
	if eg.credits != 2 {
		t.Fatalf("initial credits = %d, want 2", eg.credits)
	}
	h := newHandle(eng, 1, 0)
	eg.submitForward(mkReq(rt, h), nil, -1)
	if eg.credits != 1 {
		t.Errorf("credits after transmit = %d, want 1", eg.credits)
	}
	if eg.transmits != 1 {
		t.Errorf("transmits = %d, want 1", eg.transmits)
	}
	if eg.inUse() != 1 {
		t.Errorf("inUse = %d, want 1", eg.inUse())
	}
}

func TestEgressQueuesWhenExhaustedAndDrainsFIFO(t *testing.T) {
	eng, rt, eg := egressHarness(t)
	for i := 0; i < 5; i++ {
		h := newHandle(eng, 1, 0)
		req := mkReq(rt, h)
		req.off = i // submission order marker, read back at the receiver
		eg.submitForward(req, nil, -1)
	}
	// Pool capacity 2: first two transmit immediately, three queue.
	if eg.transmits != 2 || eg.credits != 0 {
		t.Fatalf("transmits=%d credits=%d", eg.transmits, eg.credits)
	}
	if len(eg.pending) != 3 {
		t.Fatalf("pending = %d, want 3", len(eg.pending))
	}
	eg.release()
	eg.release()
	if eg.transmits != 4 {
		t.Errorf("after 2 releases transmits = %d, want 4", eg.transmits)
	}
	eg.release()
	if eg.transmits != 5 {
		t.Errorf("final transmits = %d", eg.transmits)
	}
	if len(eg.pending) != 0 {
		t.Errorf("pending not drained: %d", len(eg.pending))
	}
	// Deliveries land in node 1's inbox in submission order (no CHT daemon
	// runs in this harness, so the inbox just accumulates).
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 5; want++ {
		req, ok := rt.nodes[1].inbox.TryGet()
		if !ok || req.off != want {
			t.Fatalf("delivery %d: got %+v ok=%v", want, req, ok)
		}
	}
}

func TestEgressRankBlocksUntilTransmit(t *testing.T) {
	eng, rt, eg := egressHarness(t)
	// Exhaust the pool from engine context.
	eg.submitForward(mkReq(rt, newHandle(eng, 1, 0)), nil, -1)
	eg.submitForward(mkReq(rt, newHandle(eng, 1, 0)), nil, -1)
	var sentAt sim.Time = -1
	eng.Spawn("sender", func(p *sim.Proc) {
		eg.submitRank(p, mkReq(rt, newHandle(eng, 1, 0)))
		sentAt = p.Now()
	})
	eng.At(500, func() { eg.release() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != 500 {
		t.Errorf("rank unblocked at %v, want 500", sentAt)
	}
	if rt.Stats().CreditWaits == 0 || rt.Stats().CreditWaited != 500 {
		t.Errorf("credit wait stats = %d/%v", rt.Stats().CreditWaits, rt.Stats().CreditWaited)
	}
}

func TestEgressTransmitWithoutCreditPanics(t *testing.T) {
	eng, rt, eg := egressHarness(t)
	_ = eng
	eg.credits = 0
	defer func() {
		if recover() == nil {
			t.Error("transmit without credit did not panic")
		}
	}()
	eg.transmit(mkReq(rt, nil))
}

func TestEgressUnknownEdgePanics(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(9, 1)
	cfg.Topology = core.MustNew(core.MFCG, 9)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("egressTo on non-edge did not panic")
		}
	}()
	rt.egressTo(0, 4) // 0 and 4 are not connected on a 3x3 mesh
}

func TestMaxCHTBacklogTracked(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(4, 2)
	cfg.Topology = core.MustNew(core.FCG, 4)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 8)
	if err := rt.Run(func(r *Rank) {
		for k := 0; k < 10; k++ {
			r.FetchAdd(0, "m", 0, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().MaxCHTBacklog == 0 {
		t.Error("CHT backlog never recorded under fan-in")
	}
}

// TestEgressesFollowUse pins that per-edge state follows use: a
// Hypercube-1024 run whose ranks all return at once builds no egress, and one
// remote fetch-add from node 1023 to node 0 builds exactly one egress per hop
// of core.Route. The
// response goes straight back over the fabric, not over the topology's
// edges, and each hop's credit ack releases the egress its sender built, so
// nothing else is built.
func TestEgressesFollowUse(t *testing.T) {
	const nodes = 1024
	topo := core.MustNew(core.Hypercube, nodes)
	run := func(body func(r *Rank)) *Runtime {
		cfg := DefaultConfig(nodes, 1)
		cfg.Topology = topo
		rt := MustNew(sim.New(), cfg)
		rt.Alloc("ctr", 8)
		if err := rt.Run(body); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	built := func(rt *Runtime) [][2]int {
		var out [][2]int
		for _, eg := range rt.egPtr {
			if eg != nil {
				out = append(out, [2]int{eg.from, eg.to})
			}
		}
		return out
	}

	idle := run(func(*Rank) {})
	if got := built(idle); len(got) != 0 {
		t.Errorf("an idle run built %d egresses, want 0: %v", len(got), got)
	}

	rt := run(func(r *Rank) {
		if r.Rank() == nodes-1 {
			r.FetchAdd(0, "ctr", 0, 1)
		}
	})
	route := core.Route(topo, nodes-1, 0)
	var want [][2]int
	for k := len(route) - 2; k >= 0; k-- { // egPtr is node-major, and the route descends
		want = append(want, [2]int{route[k], route[k+1]})
	}
	if got := built(rt); !slices.Equal(got, want) {
		t.Errorf("one fetch-add along %v built egresses %v, want one per hop %v", route, got, want)
	}
	for _, eg := range rt.egPtr {
		if eg != nil && (eg.transmits != 1 || eg.credits != eg.capacity) {
			t.Errorf("egress %d->%d: %d transmits, credits %d/%d; want 1 transmit and its credit acked back",
				eg.from, eg.to, eg.transmits, eg.credits, eg.capacity)
		}
	}
}

// TestEdgeArenaMatchesTotalEdges checks the per-edge arena New sizes from one
// neighbour walk per node against core.TotalEdges, and each node's slice of
// it against Neighbors, on every family including ragged partial shapes.
func TestEdgeArenaMatchesTotalEdges(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 30, 64, 100} {
		for _, kind := range core.AllKinds {
			topo, err := core.New(kind, n)
			if err != nil {
				continue
			}
			cfg := DefaultConfig(n, 1)
			cfg.Topology = topo
			rt := MustNew(sim.New(), cfg)
			if got, want := len(rt.egPtr), core.TotalEdges(topo); got != want {
				t.Errorf("%v: edge arena holds %d slots, want %d", topo, got, want)
			}
			for v := range rt.nodes {
				ns := &rt.nodes[v]
				if !slices.Equal(ns.nbrs, topo.Neighbors(v)) || (v+1 < n && rt.nodes[v+1].egBase != ns.egBase+len(ns.nbrs)) {
					t.Fatalf("%v: node %d owns arena [%d, +%d) = %v, want Neighbors %v", topo, v, ns.egBase, len(ns.nbrs), ns.nbrs, topo.Neighbors(v))
				}
			}
		}
	}
}
