package main

import "armcivt/internal/obs"

// layerCounts reads the traced rep's per-layer counts from outside the
// program: the registry the rep's runtimes filled (shared across the runs of
// one rep, so counters add up and gauges keep their maximum) and the few
// numbers the harness returns itself. wallS is the untraced median rep.
//
// figures.Scale accepts no registry, so scale_64k's stays empty and it
// reports notMeasured for everything but its op count.
func layerCounts(out repOut, reg *obs.Registry, wallS float64) map[string]float64 {
	observable := reg.Len() > 0
	m := map[string]float64{}
	counter := func(name string, labels ...obs.Label) float64 { return reg.Counter(name, labels...).Value() }
	ops := counter("armci_ops_total")
	m["armci.ops"] = ops
	requests := counter("armci_request_chunks_total") // one per hop, forwards included
	forwards := counter("armci_forwards_total")
	messages := counter("fabric_messages_total")
	completions := out.completions
	if completions == notMeasured {
		// figures.Contention returns only the series. Requests terminated at
		// their target CHT equal completions on a fault-free run, and that
		// count is in the registry.
		completions = counter("armci_cht_served", obs.L("class", "hot")) + counter("armci_cht_served", obs.L("class", "other"))
	}
	m["armci.local_ops"] = counter("armci_local_ops_total")
	m["armci.requests"] = requests
	m["armci.forwards"] = forwards
	m["armci.forwards_per_request"] = ratio(forwards, requests-forwards)
	m["armci.credit_waits"] = counter("armci_credit_wait_events_total")
	m["armci.credit_wait_virt_us"] = reg.Histogram("armci_credit_wait_us", obs.TimeBuckets).Sum()
	m["armci.cht_backlog_peak"] = reg.Gauge("armci_cht_backlog_peak").Max()
	m["armci.completions"] = completions
	m["armci.timeouts"] = counter("armci_request_timeouts_total")
	m["armci.retries"] = counter("armci_retries_total")
	m["armci.failures"] = counter("armci_request_failures_total")
	m["armci.reroutes"] = counter("armci_cht_reroutes_total")
	m["armci.dup_drops"] = counter("armci_dup_drops_total")
	// Membership gauges exist only on heal-armed runs; elsewhere the
	// machinery is off and 0 is the true count.
	m["armci.suspicions"] = reg.Gauge("armci_membership_suspected_total").Value()
	m["armci.confirms"] = reg.Gauge("armci_membership_confirmed_total").Value()
	m["armci.rejoins"] = reg.Gauge("armci_membership_recovered_total").Value()
	m["armci.heal_replays"] = counter("armci_heal_replays_total")
	m["armci.credit_writeoffs"] = counter("armci_heal_credit_writeoffs_total")
	m["fabric.messages"] = messages
	m["fabric.bytes"] = counter("fabric_bytes_total")
	m["fabric.msgs_per_op"] = ratio(messages, ops)
	// Useful share of fabric traffic: requests, their responses, and the
	// credit ack every delivered request hop returns (no ack counter is
	// exported; one per request message). Heartbeat probes are the rest.
	m["fabric.protocol_msg_share"] = ratio(2*requests+completions, messages)
	for _, port := range []string{"inj", "link", "ej"} {
		m["fabric.port_wait_virt_us."+port] = reg.Histogram("fabric_port_wait_us", obs.TimeBuckets, obs.L("port", port)).Quantile(0.99)
	}
	m["fabric.max_streams"] = reg.Gauge("fabric_max_streams").Max()
	m["fabric.node_drops"] = counter("fabric_node_drops_total")
	m["host_ns_per_fabric_msg"] = ratio(wallS*1e9, messages)
	if !observable {
		for name := range m {
			m[name] = notMeasured
		}
		m["armci.ops"] = out.ops
	}
	m["faults.crashes"] = float64(out.crashes)
	m["failed_op_share"] = out.failedShare
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
