package armci

import (
	"bytes"
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
		alloc: rt.alloc("m"), off: 0, data: []byte{1}, wire: headerBytes + 1, h: h,
	}
}

func TestEgressImmediateTransmitUsesCredit(t *testing.T) {
	_, rt, eg := egressHarness(t)
	if eg.credits != 2 {
		t.Fatalf("initial credits = %d, want 2", eg.credits)
	}
	h := newHandle(1, 0)
	eg.submitForward(mkReq(rt, h), nil, nil)
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
		h := newHandle(1, 0)
		req := mkReq(rt, h)
		req.off = i // submission order marker, read back at the receiver
		eg.submitForward(req, nil, nil)
	}
	// Pool capacity 2: first two transmit immediately, three queue.
	if eg.transmits != 2 || eg.credits != 0 {
		t.Fatalf("transmits=%d credits=%d", eg.transmits, eg.credits)
	}
	if eg.pending.len() != 3 {
		t.Fatalf("pending = %d, want 3", eg.pending.len())
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
	if eg.pending.len() != 0 {
		t.Errorf("pending not drained: %d", eg.pending.len())
	}
	// Deliveries land in node 1's inbox in submission order (no CHT daemon
	// runs in this harness, so the inbox just accumulates).
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 5; want++ {
		req, ok := rt.node(1).inbox.TryGet()
		if !ok || req.off != want {
			t.Fatalf("delivery %d: got %+v ok=%v", want, req, ok)
		}
	}
}

func TestEgressRankBlocksUntilTransmit(t *testing.T) {
	eng, rt, eg := egressHarness(t)
	// Exhaust the pool from engine context.
	eg.submitForward(mkReq(rt, newHandle(1, 0)), nil, nil)
	eg.submitForward(mkReq(rt, newHandle(1, 0)), nil, nil)
	var sentAt sim.Time = -1
	eng.Spawn("sender", func(p *sim.Proc) {
		eg.submitRank(p, mkReq(rt, newHandle(1, 0)))
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
// Hypercube-1024 run whose ranks all return at once builds no neighbor list
// on any node and no egress, and one remote fetch-add from node 1023 to
// node 0 builds lists on exactly the nodes of core.Route and exactly one
// egress per hop. The response goes straight back over the fabric, not over
// the topology's edges, and each hop's credit ack releases the egress its
// sender built, so nothing else is built.
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
	lists := func(rt *Runtime) []int {
		var out []int
		for n := range rt.cfg.Nodes {
			if rt.node(n).nbrs != nil {
				out = append(out, n)
			}
		}
		return out
	}
	built := func(rt *Runtime) [][2]int {
		var out [][2]int
		for n := range rt.cfg.Nodes {
			for _, eg := range rt.node(n).eg {
				if eg != nil {
					out = append(out, [2]int{eg.from, eg.to})
				}
			}
		}
		return out
	}

	idle := run(func(*Rank) {})
	if got := lists(idle); len(got) != 0 {
		t.Errorf("an idle run built neighbor lists on %d nodes, want 0: %v", len(got), got)
	}
	if got := built(idle); len(got) != 0 {
		t.Errorf("an idle run built %d egresses, want 0: %v", len(got), got)
	}

	rt := run(func(r *Rank) {
		if r.Rank() == nodes-1 {
			r.FetchAdd(0, "ctr", 0, 1)
		}
	})
	route := core.Route(topo, nodes-1, 0)
	onRoute := slices.Clone(route)
	slices.Sort(onRoute)
	if got := lists(rt); !slices.Equal(got, onRoute) {
		t.Errorf("one fetch-add along %v built neighbor lists on %v, want the route's nodes %v", route, got, onRoute)
	}
	var want [][2]int
	for k := len(route) - 2; k >= 0; k-- { // node-major, and the route descends
		want = append(want, [2]int{route[k], route[k+1]})
	}
	if got := built(rt); !slices.Equal(got, want) {
		t.Errorf("one fetch-add along %v built egresses %v, want one per hop %v", route, got, want)
	}
	for n := range rt.cfg.Nodes {
		for _, eg := range rt.node(n).eg {
			if eg != nil && (eg.transmits != 1 || eg.credits != rt.poolCap) {
				t.Errorf("egress %d->%d: %d transmits, credits %d/%d; want 1 transmit and its credit acked back",
					eg.from, eg.to, eg.transmits, eg.credits, rt.poolCap)
			}
		}
	}
}

// TestEdgeArenaMatchesTotalEdges checks the per-node edge state built on first
// use against the topology on every family, including ragged partial
// shapes: each built list equals Neighbors, its per-edge slices are as long
// as the list, and the node-major edge bases readers derive step by each
// node's degree, built or not, to core.TotalEdges.
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
			for v := 0; v < n; v += 2 { // build every other node
				rt.node(v).neighbors()
			}
			next := 0
			total := rt.nodeEdges(func(ns *nodeState, base, deg int) {
				if base != next || deg != topo.Degree(ns.id) {
					t.Fatalf("%v: node %d edges start at %d with degree %d, want %d and %d", topo, ns.id, base, deg, next, topo.Degree(ns.id))
				}
				next += deg
				if built := ns.nbrs != nil; built != (ns.id%2 == 0 && deg > 0) {
					t.Fatalf("%v: node %d built %v", topo, ns.id, built)
				}
				if ns.nbrs == nil {
					return
				}
				if !slices.Equal(ns.nbrs, topo.Neighbors(ns.id)) || len(ns.eg) != deg || len(ns.pendingBySrc) != deg {
					t.Fatalf("%v: node %d built list %v (%d egress slots, %d pending), want Neighbors %v",
						topo, ns.id, ns.nbrs, len(ns.eg), len(ns.pendingBySrc), topo.Neighbors(ns.id))
				}
			})
			if want := core.TotalEdges(topo); total != want {
				t.Errorf("%v: edge bases sum to %d, want %d", topo, total, want)
			}
		}
	}
}

// TestUnbuiltEdgesDigestAsFresh pins that a node whose edge state was never
// built reads in the checkpoint section exactly as one built and untouched.
// With healing armed no membership view is virgin, so every node is folded
// in whole, membership slices included. The run stops before the first
// heartbeat round, which would build every node, with one fetch-add's route
// built and the rest not.
func TestUnbuiltEdgesDigestAsFresh(t *testing.T) {
	const nodes = 64
	eng, rt := healedRuntime(t, core.MFCG, nodes, 1, "node:5@t=5ms", nil)
	rt.Alloc("ctr", 8)
	rt.Start(func(r *Rank) {
		if r.Rank() == nodes-1 {
			r.FetchAdd(0, "ctr", 0, 1)
		}
	})
	defer rt.Shutdown()
	if _, ok := eng.RunUntil(heartbeatInterval / 2).(*sim.TimeLimitError); !ok {
		t.Fatal("the run drained before its horizon")
	}
	built := 0
	for n := range rt.cfg.Nodes {
		if rt.node(n).nbrs != nil {
			built++
		}
	}
	if built == 0 || built == nodes {
		t.Fatalf("%d of %d nodes built at the horizon; want some but not all", built, nodes)
	}
	before := rt.checkpointSection()
	for n := range rt.cfg.Nodes {
		rt.node(n).neighbors()
	}
	if after := rt.checkpointSection(); !bytes.Equal(before, after) {
		t.Errorf("building the %d unbuilt nodes' edge state changed the armci section", nodes-built)
	}
	if err := rt.CheckCreditInvariants(); err != nil {
		t.Error(err)
	}
}
