// Package integration holds cross-module tests: full workloads driven
// through the public layers (armci + ga + apps) over every topology, on both
// the XT5 and BlueGene/P fabric models, plus heavier randomized
// deadlock-freedom storms than the unit suites run.
package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"armcivt/internal/apps/lu"
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/figures"
	"armcivt/internal/ga"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

func newRuntime(t testing.TB, kind core.Kind, nodes, ppn int, mutate func(*armci.Config)) *armci.Runtime {
	t.Helper()
	eng := sim.New()
	cfg := armci.DefaultConfig(nodes, ppn)
	topo, err := core.New(kind, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := armci.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestTaskPoolEveryTopologyEveryPopulation(t *testing.T) {
	// A GA task pool with gets, accumulates, locks and notifications, over
	// full and partial topologies.
	for _, tc := range []struct {
		kind core.Kind
		n    int
	}{
		{core.FCG, 7}, {core.MFCG, 7}, {core.MFCG, 16}, {core.MFCG, 13},
		{core.CFCG, 11}, {core.CFCG, 27}, {core.Hypercube, 8}, {core.Hypercube, 16},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%v-%d", tc.kind, tc.n), func(t *testing.T) {
			rt := newRuntime(t, tc.kind, tc.n, 2, nil)
			arr := ga.Create(rt, "work", 32, 32)
			out := ga.Create(rt, "out", 32, 32)
			ctr := ga.NewCounter(rt, "pool", 0)
			rt.Alloc("lockcheck", 8)
			const tasks = 24
			if err := rt.Run(func(r *armci.Rank) {
				arr.Fill(r, 1)
				out.Fill(r, 0)
				for {
					tk := ctr.Next(r)
					if tk >= tasks {
						break
					}
					row := int(tk) % 32
					block := arr.Get(r, [2]int{row, 0}, [2]int{row + 1, 32})
					for i := range block.Data {
						block.Data[i] *= 2
					}
					out.Acc(r, [2]int{row, 0}, [2]int{row + 1, 32}, block, 1.0)
					// Exercise a mutex-protected read-modify-write: a
					// single mutex guards the shared cell, so the final
					// count proves mutual exclusion.
					r.Lock(0)
					v := r.GetInt64At(0, "lockcheck", 0)
					r.Sleep(time(1))
					r.PutInt64At(0, "lockcheck", 0, v+1)
					r.Unlock(0)
				}
				r.Barrier()
				if r.Rank() == 0 {
					if got := r.GetInt64At(0, "lockcheck", 0); got != tasks {
						t.Errorf("lock-protected counter = %d, want %d", got, tasks)
					}
					m := out.Get(r, [2]int{0, 0}, [2]int{1, 4})
					if m.At(0, 0) != 2 {
						t.Errorf("task result = %v, want 2", m.At(0, 0))
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func time(us int64) sim.Time { return sim.Time(us) * sim.Microsecond }

func TestContentionAttenuationOnBlueGeneP(t *testing.T) {
	// The paper's future work: do virtual topologies help on a different
	// physical platform? Run the hot-spot storm on the BG/P fabric model.
	run := func(kind core.Kind) sim.Time {
		rt := newRuntime(t, kind, 64, 2, func(c *armci.Config) {
			c.Fabric = fabric.BlueGenePConfig(64)
			c.Fabric.StreamLimit = 8 // scaled with machine size, as in figures
		})
		rt.Alloc("hot", 8)
		if err := rt.Run(func(r *armci.Rank) {
			if r.Node() == 0 {
				return
			}
			for k := 0; k < 20; k++ {
				r.FetchAdd(0, "hot", 0, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Engine().Now()
	}
	fcg := run(core.FCG)
	mfcg := run(core.MFCG)
	if mfcg >= fcg {
		t.Errorf("on BG/P fabric MFCG (%v) not faster than FCG (%v) under hot-spot load", mfcg, fcg)
	}
}

func TestLUOnBlueGenePFabric(t *testing.T) {
	rt := newRuntime(t, core.MFCG, 8, 2, func(c *armci.Config) {
		c.Fabric = fabric.BlueGenePConfig(8)
	})
	cfg := lu.Setup(rt, lu.Config{NX: 48, NY: 48, Iters: 3, ResidualEvery: 3})
	if err := rt.Run(func(r *armci.Rank) {
		res := lu.Run(r, cfg)
		if err := res.Verify(); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowerFabricSlowsEverything(t *testing.T) {
	// Sanity coupling between fabric and runtime: BG/P's 22x slower links
	// must lengthen a bulk transfer workload.
	run := func(cfg fabric.Config) sim.Time {
		rt := newRuntime(t, core.FCG, 4, 1, func(c *armci.Config) { c.Fabric = cfg })
		rt.Alloc("bulk", 1<<20)
		data := make([]byte, 1<<19)
		if err := rt.Run(func(r *armci.Rank) {
			if r.Rank() == 0 {
				r.Put(3, "bulk", 0, data)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rt.Engine().Now()
	}
	xt5 := run(fabric.DefaultConfig(4))
	bgp := run(fabric.BlueGenePConfig(4))
	if bgp < 2*xt5 {
		t.Errorf("BG/P bulk transfer (%v) not clearly slower than XT5 (%v)", bgp, xt5)
	}
}

func TestPropertyMixedOpStormDeadlockFree(t *testing.T) {
	// Heavier randomized storm than the armci unit test: random partial
	// topologies, tiny buffer pools, mixed op types, random targets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := []core.Kind{core.MFCG, core.CFCG}
		kind := kinds[rng.Intn(len(kinds))]
		n := 3 + rng.Intn(14)
		ppn := 1 + rng.Intn(2)
		eng := sim.New()
		cfg := armci.DefaultConfig(n, ppn)
		topo, err := core.New(kind, n)
		if err != nil {
			return false
		}
		cfg.Topology = topo
		cfg.BufsPerProc = 1
		rt, err := armci.New(eng, cfg)
		if err != nil {
			return false
		}
		rt.Alloc("m", 1<<16)
		ops := 2 + rng.Intn(4)
		payload := make([]byte, 3000)
		if err := rt.Run(func(r *armci.Rank) {
			myRng := rand.New(rand.NewSource(seed + int64(r.Rank())))
			for k := 0; k < ops; k++ {
				dst := myRng.Intn(r.N())
				switch myRng.Intn(4) {
				case 0:
					r.Put(dst, "m", myRng.Intn(1000), payload)
				case 1:
					r.Get(dst, "m", 0, 2000)
				case 2:
					r.FetchAdd(dst, "m", 0, 1)
				default:
					r.Acc(dst, "m", 64, 1.0, []float64{1, 2, 3})
				}
			}
		}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFigurePipelineEndToEnd(t *testing.T) {
	// Drive a miniature version of the complete figure pipeline (the same
	// per-cell functions the sweep experiments run) and check the tables
	// render.
	var ss []*stats.Series
	for _, kind := range core.Kinds {
		s := &stats.Series{Label: kind.String()}
		for _, procs := range []int{96, 192} {
			mb, err := figures.Fig5PointSpec(procs, 12, core.Spec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			s.Add(float64(procs), mb)
		}
		ss = append(ss, s)
	}
	tbl := stats.SeriesTable("fig5", "procs", ss)
	if len(tbl.Rows) != 2 || len(tbl.Header) != 5 {
		t.Errorf("fig5 table %dx%d", len(tbl.Rows), len(tbl.Header))
	}
	cs, err := figures.Contention(figures.ContentionConfig{
		Kind: core.MFCG, Nodes: 9, PPN: 2, Iters: 2, SampleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Y) == 0 {
		t.Error("contention series empty")
	}
}

func TestStatsSurfaceConsistency(t *testing.T) {
	// The runtime's counters must reconcile: every forward belongs to a
	// request, local ops produce no requests, and credit bookkeeping ends
	// balanced (all egress pools full again at quiescence).
	rt := newRuntime(t, core.CFCG, 27, 1, nil)
	rt.Alloc("m", 4096)
	if err := rt.Run(func(r *armci.Rank) {
		r.Put((r.Rank()+13)%27, "m", 0, []byte{1, 2, 3})
		r.FetchAdd(0, "m", 128, 1)
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Requests == 0 || st.Ops == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.Forwards > st.Requests*2 {
		t.Errorf("forwards %d implausible vs requests %d (max 2 hops on CFCG)", st.Forwards, st.Requests)
	}
}
