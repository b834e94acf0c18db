package armci

import (
	"runtime"
	"strings"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// obsWorkload drives puts and fetch-&-adds from every rank into rank 0 over
// a forwarding topology, so CHT service, forwards, credit traffic and the
// fabric hot spot all occur.
func obsWorkload(t *testing.T, reg *obs.Registry, tr *obs.Tracer) (*Runtime, sim.Time) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(9, 2)
	cfg.Topology = core.MustNew(core.MFCG, 9)
	cfg.BufsPerProc = 1 // force credit waits
	cfg.Metrics = reg
	cfg.Trace = tr
	rt := MustNew(eng, cfg)
	rt.Alloc("a", 4096)
	data := make([]byte, 512)
	err := rt.Run(func(r *Rank) {
		for i := 0; i < 4; i++ {
			r.Put(0, "a", 0, data)
			r.FetchAdd(0, "a", 1024, 1)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.FillMetrics()
	end := eng.Now()
	rt.Shutdown()
	return rt, end
}

func TestObservabilityDoesNotPerturbVirtualTime(t *testing.T) {
	_, plain := obsWorkload(t, nil, nil)
	_, instrumented := obsWorkload(t, obs.NewRegistry(), obs.NewTracer())
	if plain != instrumented {
		t.Errorf("instrumentation changed end time: %v vs %v", plain, instrumented)
	}
}

func TestFillMetricsExportsSchema(t *testing.T) {
	reg := obs.NewRegistry()
	rt, _ := obsWorkload(t, reg, nil)

	if n := reg.Histogram("armci_credit_wait_us", obs.TimeBuckets).Count(); n == 0 {
		t.Error("no credit-wait observations")
	}
	// Every node's inbox reports its depth at every Put, through the one
	// hook installed as its page was carved.
	var puts uint64
	rt.eachCarved(func(ns *nodeState) { puts += ns.inbox.Puts() })
	if n := reg.Histogram("armci_cht_inbox_depth", obs.CountBuckets).Count(); n == 0 || uint64(n) != puts {
		t.Errorf("%d inbox-depth observations for %d inbox puts", n, puts)
	}
	if v := reg.Counter("armci_forwards_total").Value(); v == 0 {
		t.Error("MFCG workload should forward")
	}
	if v := reg.Counter("armci_request_chunks_total").Value(); v == 0 {
		t.Error("no request chunks counted")
	}
	hot := obs.L("class", "hot")
	other := obs.L("class", "other")
	if hf, of := reg.Gauge("armci_cht_busy_frac", hot).Value(), reg.Gauge("armci_cht_busy_frac", other).Value(); hf <= 0 || hf <= of {
		t.Errorf("hot CHT busy fraction %v should exceed other-class mean %v", hf, of)
	}
	if reg.Counter("armci_cht_served", hot).Value()+reg.Counter("armci_cht_forwards", hot).Value() == 0 {
		t.Error("hot node neither served nor forwarded")
	}
	// On MFCG the busiest CHT is a *forwarder* (forwards cost ~8x a local
	// service): the topology has moved the hot spot off the target node,
	// which is exactly the attenuation the paper describes. The hot node
	// must therefore be one of node 0's tree children, not node 0 itself.
	if got := rt.HotNode(); got != 3 && got != 6 {
		t.Errorf("hot node = %d, want a forwarder (3 or 6)", got)
	}
	// Per-edge occupancy: the single-buffer pools must have peaked at >= 1.
	peak := reg.Histogram("armci_edge_buffer_peak", obs.CountBuckets)
	if peak.Count() == 0 || peak.Max() < 1 {
		t.Errorf("edge buffer peaks: count=%d max=%v", peak.Count(), peak.Max())
	}
	if v := reg.Gauge("armci_edge_buffer_capacity").Value(); v != 2 { // PPN=2 x M=1
		t.Errorf("edge capacity = %v, want 2", v)
	}
	// Fabric metrics arrived through the shared registry.
	if reg.Counter("fabric_messages_total").Value() == 0 {
		t.Error("fabric metrics missing from shared registry")
	}
	if reg.Histogram("fabric_port_wait_us", obs.TimeBuckets, obs.L("port", "ej")).Count() == 0 {
		t.Error("no ejection-port wait observations")
	}
}

// TestEventCountExported: sim_events_total is the engine's Executed count,
// exported on every run, and the same on a rerun of the same workload.
func TestEventCountExported(t *testing.T) {
	var first float64
	for run := 0; run < 2; run++ {
		eng := sim.New()
		reg := obs.NewRegistry()
		cfg := DefaultConfig(16, 2)
		cfg.Topology = core.MustNew(core.MFCG, 16)
		cfg.Metrics = reg
		rt := MustNew(eng, cfg)
		rt.Alloc("a", 64)
		err := rt.Run(func(r *Rank) {
			for i := 0; i < 4; i++ {
				r.FetchAdd(0, "a", 0, 1)
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.FillMetrics()
		rt.Shutdown()
		events := reg.Counter("sim_events_total").Value()
		switch {
		case events <= 0 || events != float64(eng.Executed()):
			t.Fatalf("run %d: sim_events_total %v, Executed %d", run, events, eng.Executed())
		case run == 0:
			first = events
		case events != first:
			t.Errorf("rerun: sim_events_total %v, first run %v", events, first)
		}
	}
}

func TestChtSpansEmitted(t *testing.T) {
	tr := obs.NewTracer()
	obsWorkload(t, nil, tr)
	var service, forward int
	for _, ev := range tr.Events() {
		if ev.Cat != "cht" || ev.Ph != "X" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "service "):
			service++
		case strings.HasPrefix(ev.Name, "forward "):
			forward++
		default:
			t.Errorf("unexpected cht span name %q", ev.Name)
		}
		if ev.Dur <= 0 {
			t.Errorf("span %q has non-positive duration %v", ev.Name, ev.Dur)
		}
	}
	if service == 0 || forward == 0 {
		t.Errorf("spans: %d service, %d forward; want both > 0", service, forward)
	}
}

func TestFillMetricsWithoutObsIsNoOp(t *testing.T) {
	eng := sim.New()
	rt := MustNew(eng, DefaultConfig(2, 1))
	rt.FillMetrics() // must not panic
	if rt.HotNode() != 0 {
		t.Error("uninstrumented HotNode should be 0")
	}
	rt.Shutdown()
}

// TestTracedNewAllocatesNothingPerNode: a traced runtime registers its CHTs'
// trace thread names as one range, so a traced 64k-node New makes a few
// dozen mallocs, not one name per node (327 549 mallocs and 65.3 MiB when
// each chtN name was formatted and registered in New).
func TestTracedNewAllocatesNothingPerNode(t *testing.T) {
	const nodes = 65536
	cfg := DefaultConfig(nodes, 1)
	cfg.Topology = core.MustNew(core.Hypercube, nodes)
	cfg.Metrics = obs.NewRegistry()
	cfg.Trace = obs.NewTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := MustNew(sim.New(), cfg)
	runtime.ReadMemStats(&after)
	defer rt.Shutdown()
	if got, limit := after.Mallocs-before.Mallocs, uint64(400); got > limit {
		t.Errorf("traced New of a %d-node job made %d mallocs, want at most %d", nodes, got, limit)
	}
}
