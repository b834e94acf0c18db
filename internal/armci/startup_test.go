package armci

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// TestStartupAllocsFollowUse pins that New and Start allocate nothing per
// node: node pages and counter blocks are carved on first touch (an idle
// job carves none), the fabric's position records on first use, and the
// CHTs and the ranks are two spawn bursts, one queue entry each, whose
// process records are carved only as the processes run. A Hypercube-4096
// job spawns 8 192 processes; its set-up made 34 mallocs when measured
// (go1.24.0), 36 under the race detector (34 and 38 while Start reserved a
// record for every process, 39 and 42 while New still allocated every
// node's state and the fabric's per-position arrays). The gate holds the
// race build's count at its earlier 38: carving every page in New already
// exceeds it.
func TestStartupAllocsFollowUse(t *testing.T) {
	const nodes = 4096
	cfg := DefaultConfig(nodes, 1)
	cfg.Topology = core.MustNew(core.Hypercube, nodes)
	body := func(r *Rank) {}
	mallocs := func() uint64 {
		eng := sim.New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := MustNew(eng, cfg)
		rt.Start(body)
		runtime.ReadMemStats(&after)
		rt.Shutdown()
		return after.Mallocs - before.Mallocs
	}
	got := mallocs()
	for range 2 {
		got = min(got, mallocs())
	}
	if limit := uint64(38); got > limit {
		t.Errorf("New + Start of a %d-node job made %d mallocs, want at most %d", nodes, got, limit)
	}
	t.Logf("New + Start: %d mallocs", got)
}

// TestUncarvedStatsReadAsZero pins that a node whose Stats block was never
// carved reads exactly as a carved, zero one: carving every block leaves
// Stats and the checkpoint section unchanged. The run stops
// before the first heartbeat round, with one fetch-add's route counted and
// the rest of the nodes untouched.
func TestUncarvedStatsReadAsZero(t *testing.T) {
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
	carved := 0
	for _, s := range rt.nstats {
		if s != nil {
			carved++
		}
	}
	if carved == 0 || carved == nodes {
		t.Fatalf("%d of %d nodes carved at the horizon; want some but not all", carved, nodes)
	}
	stats, section := rt.Stats(), rt.checkpointSection()
	for n := range rt.nstats {
		rt.st(n)
	}
	if got := rt.Stats(); got != stats {
		t.Errorf("carving the %d uncarved blocks changed Stats:\n got %+v\nwant %+v", nodes-carved, got, stats)
	}
	if got := rt.checkpointSection(); !bytes.Equal(got, section) {
		t.Errorf("carving the %d uncarved blocks changed the armci section", nodes-carved)
	}
}

// TestUntouchedNodesCarveNothing pins that node state and fabric position
// state follow use. An idle Hypercube-4096 job carves no node page and no
// torus position record through New, Start and Run: every CHT parks on the
// stub, every rank exits without touching its node. Metrics on, the same
// holds through FillMetrics: the inbox-depth hook is installed as pages are
// carved, not by walking every node. One fetch-add from node
// 4095 to node 0 then carves exactly the pages of the nodes on its virtual
// route, and exactly the torus positions its messages cross: the request
// over each route hop, the hop's credit ack back, and the response.
func TestUntouchedNodesCarveNothing(t *testing.T) {
	const nodes = 4096
	run := func(reg *obs.Registry, body func(r *Rank)) *Runtime {
		cfg := DefaultConfig(nodes, 1)
		cfg.Topology = core.MustNew(core.Hypercube, nodes)
		cfg.Metrics = reg
		rt := MustNew(sim.New(), cfg)
		rt.Alloc("ctr", 8)
		if err := rt.Run(body); err != nil {
			t.Fatal(err)
		}
		rt.FillMetrics()
		rt.Shutdown()
		return rt
	}
	pages := func(rt *Runtime) []int {
		var out []int
		for p, pg := range rt.pages {
			if pg != nil {
				out = append(out, p)
			}
		}
		return out
	}
	positions := func(rt *Runtime) []int {
		var out []int
		for p := range rt.net.Capacity() {
			if rt.net.Carved(p) {
				out = append(out, p)
			}
		}
		return out
	}

	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		idle := run(reg, func(r *Rank) {})
		if got := pages(idle); len(got) != 0 {
			t.Errorf("an idle run (metrics %v) carved node pages %v, want none", reg != nil, got)
		}
		if got := positions(idle); len(got) != 0 {
			t.Errorf("an idle run (metrics %v) carved torus positions %v, want none", reg != nil, got)
		}
	}

	rt := run(nil, func(r *Rank) {
		if r.Rank() == nodes-1 {
			r.FetchAdd(0, "ctr", 0, 1)
		}
	})
	if got := GetInt64(rt.Memory(0, "ctr"), 0); got != 1 {
		t.Fatalf("counter = %d after one fetch-add, want 1", got)
	}
	route := []int{nodes - 1}
	for v := nodes - 1; v != 0; {
		v = rt.topo.NextHop(v, 0)
		route = append(route, v)
	}
	wantPages := map[int]bool{}
	wantPos := map[int]bool{}
	for k, v := range route {
		wantPages[v>>nodePageBits] = true
		if k > 0 {
			for _, p := range torusPath(rt.net, route[k-1], v) {
				wantPos[p] = true
			}
			for _, p := range torusPath(rt.net, v, route[k-1]) {
				wantPos[p] = true
			}
		}
	}
	for _, p := range torusPath(rt.net, 0, nodes-1) {
		wantPos[p] = true
	}
	if got, want := pages(rt), sortedKeys(wantPages); !slices.Equal(got, want) {
		t.Errorf("one fetch-add along %v carved node pages %v, want %v", route, got, want)
	}
	if got, want := positions(rt), sortedKeys(wantPos); !slices.Equal(got, want) {
		t.Errorf("one fetch-add along %v carved torus positions %v, want %v", route, got, want)
	}
}

// torusPath lists the torus positions a message from src to dst crosses
// under dimension-order routing with no faults, both ends included: in each
// dimension it takes the shorter ring arc, the plus arc on a tie.
func torusPath(nw *fabric.Network, src, dst int) []int {
	shape := nw.Config().Shape
	cur, tgt := nw.Coord(src), nw.Coord(dst)
	out := []int{src}
	for d := range 3 {
		step := 1
		if fwd := (tgt[d] - cur[d] + shape[d]) % shape[d]; shape[d]-fwd < fwd {
			step = shape[d] - 1 // one step minus, modulo the ring
		}
		for cur[d] != tgt[d] {
			cur[d] = (cur[d] + step) % shape[d]
			out = append(out, cur[0]+cur[1]*shape[0]+cur[2]*shape[0]*shape[1])
		}
	}
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestUncarvedNodesDigestAsFresh pins that a node whose page was never
// carved reads exactly as a carved, untouched one: carving every remaining
// page leaves the checkpoint section and Stats unchanged. A heal-armed
// runtime is checked before Start, when no page is carved and the digest
// must fold every node in with an empty membership view, and at a horizon
// after it (Start carves every page for the heartbeat rounds); an unarmed
// MFCG-256 run is checked at a horizon with one fetch-add's route carved
// and most pages not. The fabric's positions are checked the same way in
// internal/fabric (TestUncarvedPositionsDigestAsFresh).
func TestUncarvedNodesDigestAsFresh(t *testing.T) {
	check := func(t *testing.T, rt *Runtime, wantUncarved bool) {
		t.Helper()
		uncarved := 0
		for _, pg := range rt.pages {
			if pg == nil {
				uncarved++
			}
		}
		if wantUncarved != (uncarved > 0) {
			t.Fatalf("%d of %d pages uncarved", uncarved, len(rt.pages))
		}
		stats, section := rt.Stats(), rt.checkpointSection()
		edges := rt.nodeEdges(func(*nodeState, int, int) {})
		for n := range rt.cfg.Nodes {
			rt.node(n)
		}
		if got := rt.Stats(); got != stats {
			t.Errorf("carving the %d uncarved pages changed Stats:\n got %+v\nwant %+v", uncarved, got, stats)
		}
		if got := rt.checkpointSection(); !bytes.Equal(got, section) {
			t.Errorf("carving the %d uncarved pages changed the armci section", uncarved)
		}
		if got := rt.nodeEdges(func(*nodeState, int, int) {}); got != edges {
			t.Errorf("carving the %d uncarved pages moved the edge count from %d to %d", uncarved, edges, got)
		}
		if err := rt.CheckCreditInvariants(); err != nil {
			t.Error(err)
		}
	}
	oneFetchAdd := func(rt *Runtime) {
		rt.Alloc("ctr", 8)
		rt.Start(func(r *Rank) {
			if r.Rank() == rt.NRanks()-1 {
				r.FetchAdd(0, "ctr", 0, 1)
			}
		})
	}

	t.Run("healed/MFCG64/before-start", func(t *testing.T) {
		_, rt := healedRuntime(t, core.MFCG, 64, 1, "node:5@t=5ms", nil)
		check(t, rt, true)
	})
	t.Run("healed/MFCG64/horizon", func(t *testing.T) {
		eng, rt := healedRuntime(t, core.MFCG, 64, 1, "node:5@t=5ms", nil)
		oneFetchAdd(rt)
		defer rt.Shutdown()
		if _, ok := eng.RunUntil(heartbeatInterval / 2).(*sim.TimeLimitError); !ok {
			t.Fatal("the run drained before its horizon")
		}
		check(t, rt, false)
	})
	t.Run("unarmed/MFCG256/horizon", func(t *testing.T) {
		eng := sim.New()
		cfg := DefaultConfig(256, 1)
		cfg.Topology = core.MustNew(core.MFCG, 256)
		rt := MustNew(eng, cfg)
		oneFetchAdd(rt)
		defer rt.Shutdown()
		if _, ok := eng.RunUntil(5 * sim.Microsecond).(*sim.TimeLimitError); !ok {
			t.Fatal("the run drained before its horizon")
		}
		check(t, rt, true)
	})
}

// TestIdleJobHoldsNoProcessRecords: a process holds a sim.Proc record only
// while it lives. On an idle 64k-node Hypercube job every CHT parks on the
// stub at t=0 and returns its record, and every rank returns at once and
// returns its own, so the engine holds no record once the start burst has
// run, and carves its records from one chunk of 16 that the processes take
// in turn.
func TestIdleJobHoldsNoProcessRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("a 64k-node job")
	}
	const nodes = 65536
	cfg := DefaultConfig(nodes, 1)
	cfg.Topology = core.MustNew(core.Hypercube, nodes)
	eng := sim.New()
	rt := MustNew(eng, cfg)
	defer rt.Shutdown()
	rt.Start(func(r *Rank) {})
	if got := eng.LiveRecords(); got != 0 {
		t.Fatalf("%d process records before the job ran, want 0", got)
	}
	if err := eng.RunUntil(0); err == nil {
		t.Fatal("RunUntil(0) drained the queue holding the ranks' exits")
	}
	if got := eng.LiveRecords(); got != 0 {
		t.Errorf("%d process records live at t=0 with every CHT stubbed and every rank exited, want 0", got)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.LiveRecords(); got != 0 {
		t.Errorf("%d process records live after the run, want 0", got)
	}
	// Carving a node adopts its parked CHT, which takes a record back.
	rt.node(12345)
	if p := eng.Proc(rt.cht0 + 12345); p == nil || p.BlockedOn() != "queue cht12345" {
		t.Fatalf("adopted CHT record %+v", p)
	}
	if got := eng.LiveRecords(); got != 64 {
		t.Errorf("%d process records live after carving one 64-node page, want its 64 CHTs'", got)
	}
}
