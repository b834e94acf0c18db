package armci

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// faultedRuntime builds a runtime with the given fault schedule attached.
func faultedRuntime(t *testing.T, kind core.Kind, nodes, ppn int, spec string, tweak func(*Config)) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(kind, nodes)
	cfg.Faults = faults.NewInjector(eng, nodes, faults.MustParseSpec(spec))
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rt
}

// multiHopPair finds a src/dst whose first hop is an intermediate node with
// an alternate admissible hop around it — the setup for a reroute test.
func multiHopPair(t *testing.T, topo core.Topology) (src, dst, mid int) {
	t.Helper()
	n := topo.Nodes()
	for src = 0; src < n; src++ {
		for dst = 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			mid = topo.NextHop(src, dst)
			if mid == dst {
				continue
			}
			if _, ok := topo.Hop(src, dst, func(node int) bool { return node == mid }); ok {
				return src, dst, mid
			}
		}
	}
	t.Fatal("no multi-hop pair with an alternate route")
	return 0, 0, 0
}

func TestCHTRerouteAroundStalledIntermediate(t *testing.T) {
	topo := core.MustNew(core.MFCG, 16)
	src, dst, mid := multiHopPair(t, topo)
	_, rt := faultedRuntime(t, core.MFCG, 16, 1, fmt.Sprintf("cht:%d@t=0s", mid), nil)
	rt.Alloc("mem", 1024)
	want := bytes.Repeat([]byte{0xA5}, 64)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != src {
			return
		}
		r.Sleep(10 * sim.Microsecond) // let the t=0 fault activate first
		r.Put(dst, "mem", 0, want)
	})
	if got := rt.Memory(dst, "mem")[:64]; !bytes.Equal(got, want) {
		t.Errorf("put through rerouted path corrupted: got %x", got[:8])
	}
	if rt.Stats().Reroutes == 0 {
		t.Errorf("expected at least one CHT reroute around stalled node %d (src=%d dst=%d)", mid, src, dst)
	}
	if rt.Stats().Retries != 0 {
		t.Errorf("reroute should avoid the stalled CHT without retries, got %d", rt.Stats().Retries)
	}
	// The stall is permanent, so the detour is still taken after the run,
	// and it allocates nothing: src keeps one avoid predicate.
	if hop := rt.nextHop(src, dst); hop == mid {
		t.Fatalf("nextHop(%d, %d) still forwards through the stalled node %d", src, dst, mid)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.nextHop(src, dst) }); allocs != 0 {
		t.Errorf("a detour around the stalled node allocates %.1f times per forward", allocs)
	}
}

func TestTimeoutFailureSurfacesOnHandle(t *testing.T) {
	_, rt := faultedRuntime(t, core.FCG, 2, 1, "cht:1@t=0s", func(c *Config) {
		c.RequestTimeout = 50 * sim.Microsecond
		c.MaxRetries = 2
	})
	rt.Alloc("mem", 256)
	var herr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Sleep(sim.Microsecond)
		h := r.NbPut(1, "mem", 0, make([]byte, 64))
		r.Wait(h)
		herr = h.Err()
	})
	var te *TimeoutError
	if !errors.As(herr, &te) {
		t.Fatalf("handle error = %v, want *TimeoutError", herr)
	}
	if te.Attempts != 3 { // original + MaxRetries retransmits
		t.Errorf("Attempts = %d, want 3", te.Attempts)
	}
	s := rt.Stats()
	if s.Timeouts != 3 || s.Retries != 2 || s.Failures != 1 {
		t.Errorf("timeouts/retries/failures = %d/%d/%d, want 3/2/1", s.Timeouts, s.Retries, s.Failures)
	}
}

func TestRetransmitDedupAppliesAccOnce(t *testing.T) {
	// A transient target stall forces retransmits of a non-idempotent
	// accumulate; rid dedup must apply it exactly once.
	_, rt := faultedRuntime(t, core.FCG, 2, 1, "cht:1@t=0s@for=300us", func(c *Config) {
		c.RequestTimeout = 50 * sim.Microsecond
		c.MaxRetries = 10
	})
	rt.Alloc("mem", 256)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Sleep(sim.Microsecond)
		r.Acc(1, "mem", 0, 1.0, []float64{1.0})
	})
	if got := GetFloat64(rt.Memory(1, "mem"), 0); got != 1.0 {
		t.Errorf("accumulate applied %v times, want exactly once", got)
	}
	s := rt.Stats()
	if s.Retries == 0 {
		t.Errorf("expected retransmits during the %v stall", 300*sim.Microsecond)
	}
	if s.DupDrops == 0 {
		t.Errorf("expected duplicate suppression at the target (retries=%d)", s.Retries)
	}
}

func TestCreditRegenReleasesStarvedSender(t *testing.T) {
	// A permanently failed link swallows requests and their credit acks.
	// With one credit on the edge, the second send parks forever unless the
	// regeneration machinery releases it; the request timeouts then fail the
	// chunks so the run still terminates.
	_, rt := faultedRuntime(t, core.FCG, 2, 1, "link:0-1@t=0s", func(c *Config) {
		c.BufsPerProc = 1
		c.CreditTimeout = 100 * sim.Microsecond
		c.RequestTimeout = 200 * sim.Microsecond
		c.MaxRetries = 1
		c.Fabric.LinkStallLimit = 50 * sim.Microsecond
	})
	rt.Alloc("mem", 256)
	var errs [2]error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.Sleep(sim.Microsecond)
		h1 := r.NbPut(1, "mem", 0, make([]byte, 32))
		h2 := r.NbPut(1, "mem", 64, make([]byte, 32))
		r.WaitAll(h1, h2)
		errs[0], errs[1] = h1.Err(), h2.Err()
	})
	for i, err := range errs {
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Errorf("handle %d error = %v, want *TimeoutError", i, err)
		}
	}
	if rt.Stats().CreditRegens == 0 {
		t.Error("expected credit regeneration to release the starved edge")
	}
}

func TestForwardNoRouteFailsChunk(t *testing.T) {
	// A forwarding rule steering a forward at an edge that does not exist in
	// the virtual topology must surface a *NoRouteError, not drop the
	// request.
	eng := sim.New()
	cfg := DefaultConfig(9, 1)
	topo := core.MustNew(core.MFCG, 9) // 3x3: 0 and 4 not adjacent
	if topo.Connected(1, 8) {
		t.Fatal("test premise broken: 3x3 MFCG connects 1-8")
	}
	cfg.Topology = routedTopology{topo, func(src, dst int) int {
		if src == 1 {
			return 8 // steer node 1's forward at a non-edge
		}
		return topo.NextHop(src, dst)
	}}
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("mem", 256)
	var herr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		h := r.NbPut(4, "mem", 0, make([]byte, 16)) // 0 -> 1 -> (bad override)
		r.Wait(h)
		herr = h.Err()
	})
	var nre *NoRouteError
	if !errors.As(herr, &nre) {
		t.Fatalf("handle error = %v, want *NoRouteError", herr)
	}
	if rt.Stats().NoRoutes == 0 {
		t.Error("NoRoutes counter not incremented")
	}
}

// TestRandomFaultSchedulesNeverWedge is the resilience property test: random
// fault schedules on randomly sized, partially populated grids must never
// wedge the run — every rank finishes (possibly with failed handles) and the
// watchdog never trips. Mutexes are excluded: the same-node lock fast path
// carries no timeout (documented limitation in docs/FAULTS.md).
func TestRandomFaultSchedulesNeverWedge(t *testing.T) {
	kinds := []core.Kind{core.MFCG, core.CFCG}
	sizes := []int{5, 7, 12, 16}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		kind := kinds[seed%2]
		nodes := sizes[seed%int64(len(sizes))]
		t.Run(fmt.Sprintf("seed%d_%v_%d", seed, kind, nodes), func(t *testing.T) {
			spec := fmt.Sprintf("rand:5@seed=%d@for=2ms", seed)
			eng, rt := faultedRuntime(t, kind, nodes, 1, spec, nil)
			wd := sim.NewWatchdog(eng, sim.Millisecond, 6)
			wd.Start()
			rt.Alloc("mem", 64*nodes+64)
			err := rt.Run(func(r *Rank) {
				dst := (r.Rank() + 1) % r.N()
				h1 := r.NbPut(dst, "mem", 64*r.Rank(), make([]byte, 48))
				h2 := r.NbGetV((r.Rank()+2)%r.N(), "mem",
					[]Seg{{Off: 0, Len: 16}, {Off: 32, Len: 16}})
				r.WaitAll(h1, h2)
				r.Barrier()
			})
			if err != nil {
				t.Fatalf("run wedged: %v", err)
			}
			if wd.Stalls() != 0 {
				t.Errorf("watchdog tripped %d time(s)", wd.Stalls())
			}
		})
	}
}
