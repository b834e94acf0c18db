package armci

import (
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// obsState is the runtime's observability side-car, allocated only when
// Config.Metrics or Config.Trace is set. Hot paths guard every update with a
// single nil check on Runtime.obs, so the disabled runtime is byte-for-byte
// the seed protocol and virtual-time results are unchanged.
type obsState struct {
	reg *obs.Registry
	tr  *obs.Tracer
	pid int

	// Per-node CHT activity, indexed by node id. Aggregated into hot/other
	// node classes by FillMetrics (the hot node is the busiest CHT).
	chtBusy   []sim.Time // virtual time spent servicing/forwarding
	chtServed []uint64   // requests applied locally
	chtFwd    []uint64   // requests forwarded downstream

	// Runtime histograms, resolved once.
	creditWait *obs.Histogram // us a send waited for a buffer credit
	inboxDepth *obs.Histogram // CHT inbox depth observed at each enqueue
	aggOps     *obs.Histogram // sub-operations per injected batch packet
	aggBytes   *obs.Histogram // wire bytes per injected batch packet
	detectLat  *obs.Histogram // us from node crash to observer confirmation
	notifyLat  *obs.Histogram // us from node crash to a notice receiver's learning of it

	// onDepth feeds inboxDepth. Bound once here, it is every carved node's
	// inbox hook (see carvePage); nil when metrics are off.
	onDepth func(depth int)
}

// newObsState wires the side-car: fabric shares the registry, every CHT
// inbox reports its depth once its node is carved, and the CHTs' trace
// thread names are registered as one range, formatted only when the trace
// is written. New calls it before any node is carved.
func newObsState(rt *Runtime) *obsState {
	cfg := rt.cfg
	o := &obsState{
		reg:       cfg.Metrics,
		tr:        cfg.Trace,
		pid:       cfg.TracePID,
		chtBusy:   make([]sim.Time, cfg.Nodes),
		chtServed: make([]uint64, cfg.Nodes),
		chtFwd:    make([]uint64, cfg.Nodes),
	}
	if o.reg != nil {
		o.creditWait = o.reg.Histogram("armci_credit_wait_us", obs.TimeBuckets)
		o.inboxDepth = o.reg.Histogram("armci_cht_inbox_depth", obs.CountBuckets)
		o.aggOps = o.reg.Histogram("armci_agg_batch_ops", obs.CountBuckets)
		o.aggBytes = o.reg.Histogram("armci_agg_batch_bytes", obs.CountBuckets)
		if rt.healArmed {
			o.detectLat = o.reg.Histogram("armci_membership_detect_latency_us", obs.TimeBuckets)
			o.notifyLat = o.reg.Histogram("armci_membership_notify_latency_us", obs.TimeBuckets)
		}
		rt.net.Instrument(o.reg)
		o.onDepth = func(d int) { o.inboxDepth.Observe(float64(d)) }
	}
	o.tr.ThreadNames(o.pid, 0, cfg.Nodes, "cht")
	return o
}

// noteService records one CHT service/forward: svc of busy time at node,
// plus a Chrome-trace span covering exactly the service interval.
func (o *obsState) noteService(node int, req *request, forwarded bool, start, svc sim.Time) {
	o.chtBusy[node] += svc
	name := "service " + req.kind.String()
	if forwarded {
		o.chtFwd[node]++
		name = "forward " + req.kind.String()
	} else {
		o.chtServed[node]++
	}
	args := map[string]any{
		"origin": int(req.origin), "target": int(req.target), "wire_bytes": int(req.wire),
	}
	if req.kind == opBatch {
		args["ops"] = len(*req.subs)
	}
	o.tr.Complete(name, "cht", o.pid, node, start, svc, args)
}

// noteBatch records one injected batch packet's shape.
func (o *obsState) noteBatch(req *request) {
	o.aggOps.Observe(float64(len(*req.subs)))
	o.aggBytes.Observe(float64(req.wire))
}

// HotNode returns the node with the busiest CHT (the hot-spot victim in the
// contention experiments), or 0 before any traffic. Exposed for reports.
func (rt *Runtime) HotNode() int {
	if rt.obs == nil {
		return 0
	}
	hot := 0
	for n := 1; n < len(rt.obs.chtBusy); n++ {
		if rt.obs.chtBusy[n] > rt.obs.chtBusy[hot] {
			hot = n
		}
	}
	return hot
}

// FillMetrics exports the runtime's end-of-run observability snapshot into
// the registry from Config.Metrics, and asks the fabric to do the same. It
// aggregates per-node CHT activity into two node classes — "hot" (the
// busiest CHT) and "other" (everyone else) — which is how the paper frames
// hot-spot analysis: what the victim pays versus what the topology spreads
// over intermediates. Call after the simulation has run; no-op when
// uninstrumented.
func (rt *Runtime) FillMetrics() {
	o := rt.obs
	if o == nil || o.reg == nil {
		return
	}
	s := rt.Stats()
	reg := o.reg
	reg.Counter("armci_ops_total").Add(float64(s.Ops))
	reg.Counter("armci_request_chunks_total").Add(float64(s.Requests))
	reg.Counter("armci_forwards_total").Add(float64(s.Forwards))
	reg.Counter("armci_local_ops_total").Add(float64(s.LocalOps))
	reg.Counter("armci_credit_wait_events_total").Add(float64(s.CreditWaits))
	reg.Gauge("armci_cht_backlog_peak").Set(float64(s.MaxCHTBacklog))

	// Resilience counters (all zero on fault-free runs; schema in
	// docs/FAULTS.md). The fault injector exports its own set below.
	reg.Counter("armci_request_timeouts_total").Add(float64(s.Timeouts))
	reg.Counter("armci_retries_total").Add(float64(s.Retries))
	reg.Counter("armci_request_failures_total").Add(float64(s.Failures))
	reg.Counter("armci_credit_regens_total").Add(float64(s.CreditRegens))
	reg.Counter("armci_cht_reroutes_total").Add(float64(s.Reroutes))
	reg.Counter("armci_dup_drops_total").Add(float64(s.DupDrops))
	reg.Counter("armci_forward_no_route_total").Add(float64(s.NoRoutes))
	rt.faultInj.FillMetrics()

	// Membership and healing counters, exported only when healing is armed
	// so unarmed runs keep their metric set unchanged (schema in
	// docs/FAULTS.md).
	if rt.healArmed {
		reg.Gauge("armci_membership_suspected_total").Set(float64(s.Suspicions))
		reg.Gauge("armci_membership_confirmed_total").Set(float64(s.Confirms))
		reg.Gauge("armci_membership_recovered_total").Set(float64(s.Rejoins))
		reg.Gauge("armci_membership_max_detect_latency_us").Set(s.MaxDetectLatency.Micros())
		reg.Gauge("armci_membership_max_notify_latency_us").Set(s.MaxNotifyLatency.Micros())
		reg.Counter("armci_probe_msgs_total").Add(float64(s.Probes))
		reg.Counter("armci_membership_notices_total").Add(float64(s.Notices))
		reg.Counter("armci_heal_replays_total").Add(float64(s.HealReplays))
		reg.Counter("armci_heal_route_fails_total").Add(float64(s.HealFails))
		reg.Counter("armci_heal_credit_writeoffs_total").Add(float64(s.CreditWriteOffs))
		reg.Counter("armci_heal_stale_acks_total").Add(float64(s.StaleAcks))
		reg.Counter("armci_node_aborts_total").Add(float64(s.NodeAborts))
	}

	// Aggregation counters (zero unless enabled; schema in
	// docs/OBSERVABILITY.md).
	reg.Counter("armci_agg_batches_total").Add(float64(s.AggBatches))
	reg.Counter("armci_agg_batched_ops_total").Add(float64(s.AggBatchedOps))

	// Node classes: hot = busiest CHT, other = mean/sum over the rest.
	hot := rt.HotNode()
	elapsed := rt.eng.Now()
	frac := func(busy sim.Time) float64 {
		if elapsed <= 0 {
			return 0
		}
		return float64(busy) / float64(elapsed)
	}
	reg.Gauge("armci_cht_hot_node").Set(float64(hot))
	var otherBusy sim.Time
	var otherFwd, otherServed uint64
	for n := range o.chtBusy {
		if n == hot {
			continue
		}
		otherBusy += o.chtBusy[n]
		otherFwd += o.chtFwd[n]
		otherServed += o.chtServed[n]
	}
	hotClass, otherClass := obs.L("class", "hot"), obs.L("class", "other")
	reg.Gauge("armci_cht_busy_frac", hotClass).Set(frac(o.chtBusy[hot]))
	if n := len(o.chtBusy) - 1; n > 0 {
		reg.Gauge("armci_cht_busy_frac", otherClass).Set(frac(otherBusy) / float64(n))
	} else {
		reg.Gauge("armci_cht_busy_frac", otherClass).Set(0)
	}
	reg.Counter("armci_cht_forwards", hotClass).Add(float64(o.chtFwd[hot]))
	reg.Counter("armci_cht_forwards", otherClass).Add(float64(otherFwd))
	reg.Counter("armci_cht_served", hotClass).Add(float64(o.chtServed[hot]))
	reg.Counter("armci_cht_served", otherClass).Add(float64(otherServed))

	// Per-edge buffer occupancy: peak buffers in use on every directed
	// edge of the virtual topology (0 on an edge never built, and on every
	// edge of a node never built), as a distribution plus the pool size.
	peak := reg.Histogram("armci_edge_buffer_peak", obs.CountBuckets)
	edges := reg.Counter("armci_edges_total")
	rt.nodeEdges(func(ns *nodeState, _, deg int) {
		for j := range deg {
			used := 0
			if j < len(ns.eg) && ns.eg[j] != nil {
				used = ns.eg[j].peakInUse
			}
			peak.Observe(float64(used))
			edges.Inc()
		}
	})
	reg.Gauge("armci_edge_buffer_capacity").Set(float64(rt.poolCap))

	// Global memory footprint: the 4 KiB pages each allocation holds host
	// bytes for (see memory.go).
	for _, a := range rt.sortedAllocs() {
		reg.Gauge("armci_mem_pages", obs.L("alloc", a.name)).Set(float64(a.residentPages()))
	}

	// Kernel progress: every event the engine ran.
	reg.Counter("sim_events_total").Add(float64(rt.eng.Executed()))

	rt.net.FillMetrics()
}
