package armci

import (
	"sort"

	"armcivt/internal/sim"
)

// Small-op aggregation (Config.Agg): batchable same-target requests coalesce
// into opBatch packets that consume one buffer credit, one NIC injection and
// one CHT dequeue instead of one each per operation. Batches form at the two
// boundaries AggregationConfig documents — origin-side buffers flushed on
// size/Wait/Fence/Barrier, and egress-side coalescing of sends parked for a
// credit (see egress.gather). The CHT unpacks batches in cht.go.

// Aggregation model constants.
const (
	// aggThreshold is the largest payload (bytes) an operation may carry
	// and still be batchable. Larger operations always travel as their own
	// request packets.
	aggThreshold = 4096
	// aggMaxOps caps the sub-operations per batch packet.
	aggMaxOps = 16
	// aggOpOverhead is the CHT's extra service cost per additional sub-op
	// in a batch: unpacking and dispatch are much cheaper than a full
	// per-request poll cycle, which is where the hot-node win comes from.
	aggOpOverhead = 150 * sim.Nanosecond
)

// batchable reports whether req may travel inside an opBatch packet: a
// write-style operation (no response payload to route) whose payload fits
// under the aggregation threshold.
func batchable(req *request) bool {
	switch req.kind {
	case opPut, opPutV, opAcc, opAccV, opRmw:
		return req.wire-headerBytes <= aggThreshold
	}
	return false
}

// coalescable is batchable extended to existing batches, which may merge
// with further same-target sends at an egress (bounded by aggMaxOps/BufSize).
func coalescable(req *request) bool {
	return req.kind == opBatch || batchable(req)
}

// subWireOf is req's wire contribution inside a batch: payload plus segment
// descriptors under a compact batchOpBytes sub-header instead of the full
// request header. A batch contributes all of its subs (flattening is free).
func subWireOf(req *request) int {
	if req.kind == opBatch {
		return req.wire - headerBytes
	}
	return batchOpBytes + req.wire - headerBytes
}

// subCount counts the sub-operations req contributes when merged.
func subCount(req *request) int {
	if req.kind == opBatch {
		return len(req.subs)
	}
	return 1
}

// appendSubs flattens req onto subs in issue order.
func appendSubs(subs []*request, req *request) []*request {
	if req.kind == opBatch {
		return append(subs, req.subs...)
	}
	return append(subs, req)
}

// buildBatch assembles an opBatch packet from two or more requests bound for
// the same target node. The batch carries no handle or rid of its own:
// completion, timeout retransmission and dedup all act per sub-operation.
func buildBatch(subs []*request) *request {
	wire := headerBytes
	for _, s := range subs {
		wire += subWireOf(s)
	}
	return &request{
		kind:   opBatch,
		origin: subs[0].origin, originNode: subs[0].originNode,
		target: subs[0].target,
		wire:   wire,
		subs:   subs,
	}
}

// batchSubs views req as its sub-operations (itself, when not a batch), for
// per-sub completion and failure paths.
func batchSubs(req *request) []*request {
	if req.kind == opBatch {
		return req.subs
	}
	return []*request{req}
}

// ---------- Origin-side aggregation ----------

// submit injects an operation's chunks, diverting batchable chunks through
// the rank's per-target aggregation buffer when aggregation is enabled. With
// overload protection armed, admission control runs first: a shed operation
// completes with *OverloadError and injects nothing (see overload.go).
func (r *Rank) submit(reqs []*request, h *Handle) {
	rt := r.rt
	if rt.overloadArmed && !r.admit(reqs, h) {
		return
	}
	for i, req := range reqs {
		req.setHandle(h, i)
		if rt.cfg.Agg.Enabled && batchable(req) {
			tn := req.target / rt.cfg.PPN
			r.aggAdd(req, tn)
		} else {
			r.send(req)
		}
	}
}

// aggAdd buffers a batchable request for its target node, flushing first if
// the addition would cross the aggMaxOps or BufSize boundary.
func (r *Rank) aggAdd(req *request, targetNode int) {
	cfg := &r.rt.cfg
	if r.agg == nil {
		r.agg = map[int][]*request{}
	}
	cur := r.agg[targetNode]
	if len(cur) > 0 {
		wire := headerBytes
		for _, s := range cur {
			wire += subWireOf(s)
		}
		if len(cur) >= r.rt.effMaxOps(r.node, targetNode) || wire+subWireOf(req) > cfg.BufSize {
			r.flushAgg(targetNode)
		}
	}
	r.agg[targetNode] = append(r.agg[targetNode], req)
}

// flushAgg injects the aggregation buffer for one target node: a lone
// buffered request goes out as itself, two or more as one batch packet. Each
// sub arms its own timeout at injection, exactly as an unbatched send would.
func (r *Rank) flushAgg(targetNode int) {
	subs := r.agg[targetNode]
	if len(subs) == 0 {
		return
	}
	delete(r.agg, targetNode)
	if len(subs) == 1 {
		r.send(subs[0])
		return
	}
	rt := r.rt
	if err := rt.deadRouteErr(r.node, targetNode); err != nil {
		rt.abortChunks(err, subs...)
		return
	}
	for _, sub := range subs {
		rt.armTimeout(sub)
	}
	batch := buildBatch(subs)
	first := rt.nextHop(r.node, targetNode)
	rt.egressTo(r.node, first).submitRank(r.proc, batch)
}

// flushAllAgg flushes every target's aggregation buffer in target order
// (sorted, so results are independent of map iteration). Called on every
// Wait/Fence/Barrier and when the rank's body returns.
func (r *Rank) flushAllAgg() {
	if len(r.agg) == 0 {
		return
	}
	tns := make([]int, 0, len(r.agg))
	for tn := range r.agg {
		tns = append(tns, tn)
	}
	sort.Ints(tns)
	for _, tn := range tns {
		r.flushAgg(tn)
	}
}
