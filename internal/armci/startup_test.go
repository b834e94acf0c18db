package armci

import (
	"bytes"
	"runtime"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// TestStartupAllocsFollowUse pins that New and Start allocate no object per
// node: the CHT inboxes live in the node array, counter blocks are carved on
// first write, and the spawn burst's process records, process table and
// queue storage are each allocated once. A Hypercube-4096 job spawns 8 192
// processes; its set-up may cost at most one malloc per 64 nodes.
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
	if limit := uint64(nodes / 64); got > limit {
		t.Errorf("New + Start of a %d-node job made %d mallocs, want at most %d (nodes/64)", nodes, got, limit)
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
