package armci

import (
	"errors"
	"math/rand"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// checkEdgeSlots verifies the slots traffic indexes per-edge state with
// against the neighbor lists they stand in for: every built egress's own
// slot is from's nbrIdx(to), every reverse slot to has cached is to's
// nbrIdx(from), and every membership view's dead count is its number of
// memberDead entries. It returns how many reverse slots and dead entries it
// saw, so callers can tell the run exercised them.
func checkEdgeSlots(t *testing.T, rt *Runtime) (revs, dead int) {
	t.Helper()
	for n := range rt.cfg.Nodes {
		ns := rt.node(n)
		for i, eg := range ns.eg {
			if eg == nil {
				continue
			}
			if eg.from != ns.id || eg.to != ns.nbrs[i] || int(eg.slot) != i || ns.nbrIdx(eg.to) != i {
				t.Fatalf("egress %d->%d in slot %d of node %d: slot %d, nbrIdx(to) %d",
					eg.from, eg.to, i, ns.id, eg.slot, ns.nbrIdx(eg.to))
			}
			if eg.rev < 0 {
				continue
			}
			to := rt.node(eg.to)
			if to.nbrs == nil {
				t.Fatalf("egress %d->%d caches reverse slot %d at a node with no neighbor list", eg.from, eg.to, eg.rev)
			}
			if want := to.nbrIdx(eg.from); int(eg.rev) != want {
				t.Fatalf("egress %d->%d caches reverse slot %d, node %d's nbrIdx(%d) is %d",
					eg.from, eg.to, eg.rev, eg.to, eg.from, want)
			}
			revs++
		}
		if mv := ns.mv; mv != nil {
			count := 0
			for _, s := range mv.state {
				if s == memberDead {
					count++
				}
			}
			if mv.dead != count {
				t.Fatalf("node %d's view counts %d dead, holds %d", ns.id, mv.dead, count)
			}
			dead += count
		}
	}
	return revs, dead
}

// TestEdgeSlotsMatchNeighborIndex runs a heal-armed chaos mix — crash-stops
// (some rebooting), timeouts and retries — on every topology family, and
// checks the edge slots and dead counts
// against the neighbor lists at every 100 µs horizon and at the end.
func TestEdgeSlotsMatchNeighborIndex(t *testing.T) {
	const (
		nodes, ppn = 32, 2
		horizon    = 2 * sim.Millisecond
		every      = 100 * sim.Microsecond
	)
	var confirms, rejoins uint64
	deadSeen := 0
	for _, kind := range []core.Kind{core.FCG, core.MFCG, core.CFCG, core.Hypercube, core.HyperX, core.Dragonfly} {
		t.Run(kind.String(), func(t *testing.T) {
			eng := sim.New()
			schedule := faults.RandomNodeFaults(int64(kind)+1, nodes, 3, horizon)
			victim := map[int]bool{}
			for _, f := range schedule {
				victim[f.A] = true
			}
			cfg := DefaultConfig(nodes, ppn)
			cfg.Topology = core.MustNew(kind, nodes)
			cfg.Faults = faults.NewInjector(eng, nodes, &faults.Spec{Faults: schedule})
			cfg.Heal.Enabled = true
			cfg.RequestTimeout = 200 * sim.Microsecond
			cfg.MaxRetries = 4
			cfg.CreditTimeout = 400 * sim.Microsecond
			rt, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var survivors []int
			for rank := 0; rank < rt.NRanks(); rank++ {
				if !victim[rank/ppn] {
					survivors = append(survivors, rank)
				}
			}
			rt.Alloc("ledger", 8*rt.NRanks())
			rt.Start(func(r *Rank) {
				if victim[r.Node()] {
					r.Sleep(2 * horizon)
					return
				}
				rng := rand.New(sim.NewSource(int64(r.Rank())))
				for i := 0; i < 12; i++ {
					r.Wait(r.NbAcc(survivors[rng.Intn(len(survivors))], "ledger", 8*r.Rank(), 1.0, []float64{1}))
					r.Sleep(sim.Time(int64(20*sim.Microsecond) + rng.Int63n(int64(60*sim.Microsecond))))
				}
			})
			revs := 0
			for h := every; ; h += every {
				err := eng.RunUntil(h)
				var tl *sim.TimeLimitError
				if !errors.As(err, &tl) {
					if err != nil {
						t.Fatalf("RunUntil(%v): %v", h, err)
					}
					break
				}
				r, d := checkEdgeSlots(t, rt)
				revs = max(revs, r)
				deadSeen += d
			}
			r, _ := checkEdgeSlots(t, rt)
			if revs = max(revs, r); revs == 0 {
				t.Fatal("no edge cached a reverse slot")
			}
			s := rt.Stats()
			if s.Confirms == 0 || s.Completions == 0 {
				t.Fatalf("the mix never confirmed a crash or completed an op: %+v", s)
			}
			confirms += s.Confirms
			rejoins += s.Rejoins
		})
	}
	t.Logf("%d dead entries seen at horizons, %d confirms, %d rejoins", deadSeen, confirms, rejoins)
	if !t.Failed() && (deadSeen == 0 || rejoins == 0) {
		t.Fatalf("dead counts were never exercised both ways: %d dead entries seen at horizons, %d confirms, %d rejoins",
			deadSeen, confirms, rejoins)
	}
}
