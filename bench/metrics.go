package main

// metricDef declares one metric. The two tables below are the single source
// of every name the program emits; BENCHMARK.json repeats them and
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks numbers the simulation computes (virtual time, counts):
	// two runs of one commit and seed must give identical values, and a
	// change that only speeds the simulator up must leave them identical.
	// -compare reports any difference.
	Exact bool
	// Home, on a layer-driver metric, is the workload whose traced run
	// measures it (layers.go); counts and spans, which every workload has of
	// its own, leave it empty.
	Home string
}

// notMeasured is reported for a per-layer metric a traced run has no value
// for: a count the workload's harness gives no outside view of (figures.Scale
// takes no registry), or a layer driver whose home is another workload. It is
// not 0: 0 is a real count.
const notMeasured = -1

// endToEnd lists what a user of the simulator sees, per workload. Host-time
// metrics (wall_s, cpu_s, setup_s) are host seconds; virt_us_per_op is
// simulated time. Measured with metrics and tracing off.
//
// The contract refuses a bound that the spread of ten runs with ten seeds
// exceeds, so each bound is the issue's where that spread stays safely inside
// it on the host this was written on (allocs_per_op 1%) and the smallest step
// above the measured spreads where it does not (README.md, "Measured
// steadiness"): wall_s and cpu_s 20%, not 10% (worst set of ten: 17.9%);
// peak_rss_mb 8%, not 5% (worst: 4.3%; resampling the 50 runs, one set in 25
// spreads more than 5%, one in 1000 more than 8%). Below their bound the host
// times are unresolved on this host, and a claim of a gain rests on paired
// runs of parent and change, not on the bound. setup_s has the contract's
// maximum, as the contract asks. virt_us_per_op cannot be declared exact in
// BENCHMARK.json; -compare enforces identity.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.08},
	{Name: "allocs_per_op", Unit: "mallocs/op", Better: "lower", Bound: 0.01},
	{Name: "virt_us_per_op", Unit: "virt_us", Better: "lower", Bound: 0.01, Exact: true},
}

// perLayer lists the single-layer metrics of the traced run: (a) isolated
// driver loops around public layer functions, (b) counts read after the
// traced rep, (c) spans the benchmark records around its calls.
var perLayer = []metricDef{
	// (a) layer drivers: host time of one public call, median of driverReps,
	// measured in the traced run of Home only.
	{Name: "sim.event_ns.heap16", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "sim.event_ns.heap64k", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "sim.spawn_ns", Unit: "ns", Better: "lower", Home: "scale_64k"},
	{Name: "sim.shards2_speedup", Unit: "x", Better: "higher", Home: "chaos_heal"},
	{Name: "fabric.send_ns.hop1", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "fabric.send_ns.far", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "fabric.send_ns.incast", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "fabric.hop_ns", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "fabric.new_ms.64k", Unit: "ms", Better: "lower", Home: "scale_64k"},
	{Name: "core.nexthop_ns.fcg", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "core.nexthop_ns.mfcg", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "core.nexthop_ns.cfcg", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "core.nexthop_ns.hypercube", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "core.replacement_hop_ns", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "core.neighbors_ns", Unit: "ns", Better: "lower", Home: "chaos_heal"},
	{Name: "armci.op_ns.fadd_local", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.op_ns.fadd_remote", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.op_ns.fadd_fwd5", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.op_ns.putv_remote", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.op_ns.fadd_remote_timeouts", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.op_ns.fadd_win8_agg", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "armci.new_ms.fcg256x4", Unit: "ms", Better: "lower", Home: "hotspot"},
	{Name: "armci.new_ms.hypercube64k", Unit: "ms", Better: "lower", Home: "scale_64k"},
	{Name: "armci.run_idle_ms.hypercube64k", Unit: "ms", Better: "lower", Home: "scale_64k"},
	{Name: "armci.shutdown_ms.hypercube64k", Unit: "ms", Better: "lower", Home: "scale_64k"},
	{Name: "ga.get_ns.block16", Unit: "ns", Better: "lower", Home: "app_dft"},
	{Name: "ga.readinc_ns", Unit: "ns", Better: "lower", Home: "app_dft"},
	{Name: "ckpt.mix_mbps", Unit: "MB/s", Better: "higher", Home: "chaos_heal"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower", Home: "hotspot"},
	{Name: "obs.traced_wall_ratio", Unit: "ratio", Better: "lower"},

	// (b) traced-rep counts of this workload. Directions say which way a
	// count moves when the protocol wastes less; they carry no bound.
	{Name: "armci.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.local_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.requests", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.forwards", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.forwards_per_request", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "armci.credit_waits", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.credit_wait_virt_us", Unit: "virt_us", Better: "lower", Exact: true},
	{Name: "armci.cht_backlog_peak", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.completions", Unit: "count", Better: "higher", Exact: true},
	{Name: "armci.timeouts", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.failures", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.reroutes", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.dup_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.suspicions", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.confirms", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.rejoins", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.heal_replays", Unit: "count", Better: "lower", Exact: true},
	{Name: "armci.credit_writeoffs", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.messages", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.msgs_per_op", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "fabric.protocol_msg_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "fabric.port_wait_virt_us.inj", Unit: "virt_us", Better: "lower", Exact: true},
	{Name: "fabric.port_wait_virt_us.link", Unit: "virt_us", Better: "lower", Exact: true},
	{Name: "fabric.port_wait_virt_us.ej", Unit: "virt_us", Better: "lower", Exact: true},
	{Name: "fabric.max_streams", Unit: "count", Better: "lower", Exact: true},
	{Name: "fabric.node_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "faults.crashes", Unit: "count", Better: "lower", Exact: true},
	{Name: "failed_op_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "host_ns_per_fabric_msg", Unit: "ns", Better: "lower"},

	// (c) spans of the traced set-up and the traced rep, summed per layer
	// call; self is the root span minus the part its children cover. 0
	// where the workload makes no such call.
	{Name: "span.setup.core_new_s", Unit: "s", Better: "lower"},
	{Name: "span.setup.faults_new_s", Unit: "s", Better: "lower"},
	{Name: "span.setup.armci_new_s", Unit: "s", Better: "lower"},
	{Name: "span.setup.dft_setup_s", Unit: "s", Better: "lower"},
	{Name: "span.setup.shutdown_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.figures_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.core_new_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.armci_new_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.dft_setup_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.rt_run_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.stats_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.shutdown_s", Unit: "s", Better: "lower"},
	{Name: "span.rep.self_s", Unit: "s", Better: "lower"},
}
