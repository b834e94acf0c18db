package obs_test

// Documentation-drift check: docs/OBSERVABILITY.md (baseline metrics) and
// docs/FAULTS.md (fault-injection and resilience metrics) are together the
// schema of record for every metric the repository emits. This test runs an instrumented workload that exercises
// every emitting layer (armci runtime + fabric via FillMetrics, a faulted run
// for the resilience counters, plus the core analysis gauges cmd/topoviz
// publishes) and fails if any registered metric name is missing from every
// document.
//
// It lives in package obs_test so it can import internal/armci, which
// itself imports internal/obs.

import (
	"os"
	"strings"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// allLayersRegistry runs a small forwarding workload with every
// instrumentation hook enabled and returns the populated registry.
func allLayersRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()

	eng := sim.New()
	cfg := armci.DefaultConfig(9, 2)
	topo := core.MustNew(core.MFCG, 9)
	cfg.Topology = topo
	cfg.BufsPerProc = 1 // force credit waits
	cfg.Metrics = reg
	cfg.Trace = obs.NewTracer()
	rt := armci.MustNew(eng, cfg)
	rt.Alloc("a", 4096)
	data := make([]byte, 512)
	err := rt.Run(func(r *armci.Rank) {
		for i := 0; i < 2; i++ {
			r.Put(0, "a", 0, data)
			r.FetchAdd(0, "a", 1024, 1)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.FillMetrics()
	rt.Shutdown()

	// A faulted run on the same registry adds the fault-injection and
	// resilience metric names (schema in docs/FAULTS.md): a transient CHT
	// stall longer than the request timeout forces retries and dedup.
	feng := sim.New()
	fcfg := armci.DefaultConfig(4, 1)
	fcfg.Topology = core.MustNew(core.MFCG, 4)
	fcfg.Metrics = reg
	fcfg.Trace = obs.NewTracer()
	fcfg.Faults = faults.NewInjector(feng, 4,
		faults.MustParseSpec("cht:1@t=0s@for=300us,degrade:0-1@t=0s@bw=0.5"))
	fcfg.RequestTimeout = 50 * sim.Microsecond
	frt := armci.MustNew(feng, fcfg)
	frt.Alloc("f", 1024)
	if err := frt.Run(func(r *armci.Rank) {
		if r.Rank() == 0 {
			r.Put(1, "f", 0, make([]byte, 256))
		}
	}); err != nil {
		t.Fatal(err)
	}
	frt.FillMetrics()
	frt.Shutdown()

	// A heal-armed crash-stop run adds the membership and self-healing
	// names (schema in docs/FAULTS.md): node 5 crashes mid-run, survivors'
	// heartbeat monitors confirm the failure (registering the detection
	// latency histogram) while the rest keep forwarding traffic.
	heng := sim.New()
	hcfg := armci.DefaultConfig(16, 1)
	hcfg.Topology = core.MustNew(core.MFCG, 16)
	hcfg.Metrics = reg
	hcfg.Trace = obs.NewTracer()
	hcfg.Faults = faults.NewInjector(heng, 16, faults.MustParseSpec("node:5@t=100us"))
	hcfg.Heal.Enabled = true
	hrt := armci.MustNew(heng, hcfg)
	hrt.Alloc("h", 1024)
	if err := hrt.Run(func(r *armci.Rank) {
		if r.Rank() == 5 {
			r.Sleep(2 * sim.Millisecond) // parked when its node crash-stops
			return
		}
		for i := 0; i < 4; i++ {
			r.Put(0, "h", 0, make([]byte, 64))
			r.Sleep(500 * sim.Microsecond) // outlive the confirm threshold
		}
	}); err != nil {
		t.Fatal(err)
	}
	hrt.FillMetrics()
	hrt.Shutdown()

	// The core analysis gauges, exactly as cmd/topoviz publishes them.
	tl := obs.L("topo", core.MFCG.String())
	reg.Gauge("core_diameter_hops", tl).Set(float64(core.Diameter(topo)))
	reg.Gauge("core_avg_hops", tl).Set(core.AvgHops(topo))
	reg.Gauge("core_forwarder_share", tl).Set(core.ForwarderShare(topo, 0))
	reg.Gauge("core_edges_total", tl).Set(float64(core.TotalEdges(topo)))
	reg.Gauge("core_tree_height", tl).Set(float64(core.BuildPathTree(topo, 0).Height()))

	return reg
}

func TestEveryEmittedMetricIsDocumented(t *testing.T) {
	var docs string
	for _, path := range []string{"../../docs/OBSERVABILITY.md", "../../docs/FAULTS.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs += string(doc)
	}
	reg := allLayersRegistry(t)
	names := reg.Names()
	if len(names) < 20 {
		t.Fatalf("workload registered only %d metric names; the all-layers workload regressed: %v", len(names), names)
	}
	for _, name := range names {
		if !strings.Contains(docs, "`"+name+"`") {
			t.Errorf("metric %q is emitted but documented in neither docs/OBSERVABILITY.md nor docs/FAULTS.md", name)
		}
	}
}

// TestWorkloadCoversDocumentedTables is the inverse sanity check: a sample
// of load-bearing documented names must actually be emitted by the
// workload, so the drift test cannot rot into vacuity.
func TestWorkloadCoversDocumentedTables(t *testing.T) {
	reg := allLayersRegistry(t)
	have := map[string]bool{}
	for _, n := range reg.Names() {
		have[n] = true
	}
	for _, want := range []string{
		"armci_ops_total", "armci_cht_busy_frac", "armci_credit_wait_us",
		"armci_edge_buffer_peak", "fabric_port_wait_us", "fabric_nic_util",
		"fabric_link_util", "core_diameter_hops", "core_forwarder_share",
		"armci_retries_total", "armci_dup_drops_total",
		"faults_injected_total", "faults_activations_total",
		"fabric_link_stalls_total",
		"armci_membership_confirmed_total", "armci_membership_detect_latency_us",
		"armci_heal_replays_total", "fabric_node_drops_total",
	} {
		if !have[want] {
			t.Errorf("documented metric %q not emitted by the all-layers workload", want)
		}
	}
}
