package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// egress manages one directed virtual-topology edge from the sender's side:
// it owns the buffer credits the peer dedicated to this node and a FIFO of
// sends waiting for a credit.
//
// Two kinds of traffic share an egress:
//
//   - Origin sends: the issuing rank blocks until its request is
//     transmitted (ARMCI's flow control on the initiating process).
//   - CHT forwards: the helper thread never blocks. A forward that cannot
//     get a credit waits here while the request keeps occupying its
//     upstream buffer (the credit return fires only on transmission).
//
// Keeping CHTs non-blocking is essential to the paper's deadlock-freedom
// argument: buffer classes must drain independently so that LDF's monotone
// dimension order makes the buffer wait-for graph acyclic. A CHT that
// head-of-line blocked on one stalled forward would couple all of a node's
// buffer classes and deadlock even under LDF.
//
// An egress exists only once its edge is used: nodeState.eg holds one
// pointer per out-edge in sorted-neighbor order (nodeState.egAt), not a
// per-node map. The first use carves the record from a runtime-owned slab;
// until then the nil entry stands for a fresh, full credit pool with
// nothing parked.
type egress struct {
	rt       *Runtime
	from, to int
	credits  int
	// capacity is the pool size credits regenerate toward: PPN * BufsPerProc
	// at start, adjusted by adaptive grant/revoke messages (credits.go).
	capacity int
	pending  []*pendingSend
	// group is drain's reusable batch list (see gather).
	group []*pendingSend
	// label caches the formatted deadlock-report label for parked origin
	// sends (formatted at most once per edge, not once per wait).
	label string
	// peakInUse is the most buffers ever simultaneously occupied at the
	// peer over this edge; tracked only when observability is enabled.
	peakInUse int
	// revokeDebt counts adaptive capacity reductions not yet matched by a
	// returning credit; release() pays it down before growing the pool.
	revokeDebt int

	// Credit-loss recovery (active only with fault injection and a
	// CreditTimeout): when sends sit parked for a full interval with no
	// transmission, the edge assumes a credit ack was dropped on a failed
	// link and regenerates one credit. regenDebt counts regenerations not
	// yet matched by a late real ack — release() pays the debt down before
	// growing the pool, so capacity is never exceeded.
	regenDebt     int
	regenArmed    bool
	regenInterval sim.Time
	transmits     uint64 // progress signal for the regen check
}

// pendingSend is one send parked on an egress waiting for a buffer credit.
// Records recycle through their node's free list (nodeState.psFree), so a
// congested edge churns no heap objects: an origin send embeds its completion
// gate by value, a CHT forward instead carries the owner/prev pair finish()
// needs when the request finally leaves, and freed guards the free list
// against double release.
type pendingSend struct {
	req *request
	// gate is armed (hasGate true) for origin sends: the issuing rank waits
	// on it and releases the record itself after Wait returns — drain never
	// recycles a record a parked waiter could still observe.
	gate    sim.Gate
	hasGate bool
	// fwdOwner/fwdPrev are set for CHT forwards: at transmission,
	// fwdOwner.finish(req, fwdPrev) releases the upstream request buffer.
	fwdOwner *nodeState
	fwdPrev  int
	enq      sim.Time
	freed    bool
}

// creditLabel returns the deadlock-report label for sends parked on this
// edge, formatting it on first use.
func (eg *egress) creditLabel() string {
	if eg.label == "" {
		eg.label = fmt.Sprintf("credits %d->%d", eg.from, eg.to)
	}
	return eg.label
}

// submitRank transmits an origin request, blocking the rank's process until
// a buffer credit is available and the message is injected.
func (eg *egress) submitRank(p *sim.Proc, req *request) {
	if len(eg.pending) == 0 && eg.credits > 0 {
		eg.transmit(req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ns := &eg.rt.nodes[eg.from]
	ps := ns.getPS()
	ps.req = req
	ps.hasGate = true
	ps.gate.Init(eg.rt.eng, eg.creditLabel())
	ps.enq = eg.rt.eng.NowOn(eg.from)
	eg.pending = append(eg.pending, ps)
	eg.maybeArmRegen()
	ps.gate.Wait(p) // wait time is accounted in drain()
	ns.putPS(ps)    // the waiter owns the release — see putPS
}

// submitForward transmits a CHT forward without blocking. owner (with prev)
// identifies the upstream buffer to release when the request actually leaves
// this node — owner.finish(req, prev) runs at transmission; a nil owner (the
// retransmission path) skips it.
func (eg *egress) submitForward(req *request, owner *nodeState, prev int) {
	if len(eg.pending) == 0 && eg.credits > 0 {
		eg.transmit(req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		if owner != nil {
			owner.finish(req, prev)
		}
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ps := eg.rt.nodes[eg.from].getPS()
	ps.req = req
	ps.fwdOwner = owner
	ps.fwdPrev = prev
	ps.enq = eg.rt.eng.NowOn(eg.from)
	eg.pending = append(eg.pending, ps)
	eg.maybeArmRegen()
}

// submitParked re-submits a send that already holds its pendingSend record —
// the healing path replaying a parked send through a replacement forwarder
// (membership.go). It counts like a fresh submission (CreditWaits, enq) so a
// healed run's accounting matches one that never parked on the dead edge.
func (eg *egress) submitParked(ps *pendingSend) {
	if len(eg.pending) == 0 && eg.credits > 0 {
		eg.transmit(ps.req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		eg.rt.nodes[eg.from].completeParked(ps)
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ps.enq = eg.rt.eng.NowOn(eg.from)
	eg.pending = append(eg.pending, ps)
	eg.maybeArmRegen()
}

// completeParked runs a parked send's post-transmission (or abort) duties:
// release the upstream buffer for forwards, wake the waiting rank for origin
// sends. The record returns to the pool here only when no waiter can still
// observe it — a gated record is released by its own waiter (submitRank).
func (ns *nodeState) completeParked(ps *pendingSend) {
	if ps.fwdOwner != nil {
		ps.fwdOwner.finish(ps.req, ps.fwdPrev)
	}
	if ps.hasGate {
		ps.gate.Fire()
	} else {
		ns.putPS(ps)
	}
}

// release returns one buffer credit and drains the pending FIFO. A credit
// owed to an adaptive revoke or already regenerated against this edge's
// debt is swallowed instead: the pool must not exceed its capacity. With
// healing armed, an ack that would overflow an already-full pool is stale —
// sent before a crash/heal cycle reset or wrote off this edge — and is
// swallowed too.
func (eg *egress) release() {
	switch {
	case eg.revokeDebt > 0:
		eg.revokeDebt--
	case eg.regenDebt > 0:
		eg.regenDebt--
	case eg.rt.healArmed && eg.credits >= eg.capacity:
		eg.rt.st(eg.from).StaleAcks++
	default:
		eg.credits++
	}
	eg.drain()
}

// reset restores the edge to a full fresh credit pool with no debts and the
// regen backoff cleared, then transmits whatever is parked on it. Used when
// this node reboots after its own crash (crashStop already emptied the
// edge) and when the peer rejoins (its buffers were reallocated from
// scratch): after a confirmed death healDeadNeighbor has moved the parked
// sends elsewhere, but a peer that rebooted before anyone confirmed it still
// has sends waiting here for credits its crash will never return. Capacity
// is kept — adaptive grants and revokes describe the receiver's pool
// partition, which memory, not the crash, owns.
func (eg *egress) reset() {
	eg.credits = eg.capacity
	eg.revokeDebt = 0
	eg.regenDebt = 0
	eg.regenInterval = 0
	eg.drain()
}

// drain transmits parked sends while credits last. With aggregation on,
// each freed credit first coalesces the head's same-target batchable run
// into a single packet (gather), so a contended edge moves its backlog in
// batches rather than one operation per credit.
func (eg *egress) drain() {
	for len(eg.pending) > 0 && eg.credits > 0 {
		ps := eg.pending[0]
		eg.pending[0] = nil
		eg.pending = eg.pending[1:]
		group := eg.gather(ps)
		req := ps.req
		if len(group) > 1 {
			var subs []*request
			for _, g := range group {
				subs = appendSubs(subs, g.req)
			}
			req = buildBatch(subs)
		}
		eg.transmit(req)
		now := eg.rt.eng.NowOn(eg.from)
		owner := &eg.rt.nodes[eg.from]
		for _, g := range group {
			waited := now - g.enq
			eg.rt.st(eg.from).CreditWaited += waited
			if o := eg.rt.obs; o != nil {
				o.creditWait.Observe(waited.Micros())
			}
			owner.completeParked(g)
		}
	}
}

// gather collects head plus any later parked sends that can ride in the
// same batch packet: batchable, bound for the same final target node, and
// within the aggMaxOps/BufSize bounds — the same M-bounded buffer rule that
// caps forwarding depth caps the merged packet, so it always fits one
// request buffer downstream. The first same-target send that does not fit
// stops the scan (per-target FIFO order is preserved); sends for other
// targets are skipped and stay parked in order. The group is built in the
// egress's reusable eg.group, valid until the next gather.
func (eg *egress) gather(head *pendingSend) []*pendingSend {
	cfg := &eg.rt.cfg
	group := append(eg.group[:0], head)
	eg.group = group
	if !cfg.Agg.Enabled || len(eg.pending) == 0 || !coalescable(head.req) {
		return group
	}
	tn := head.req.target / cfg.PPN
	ops := subCount(head.req)
	wire := headerBytes + subWireOf(head.req)
	// Merged sends leave the FIFO; the rest are compacted in place, in
	// order (rest never overtakes the scan).
	rest := eg.pending[:0]
	scanning := true
	for _, ps := range eg.pending {
		if scanning && ps.req.target/cfg.PPN == tn {
			if coalescable(ps.req) &&
				ops+subCount(ps.req) <= eg.rt.effMaxOps(eg.from, tn) &&
				wire+subWireOf(ps.req) <= cfg.BufSize {
				group = append(group, ps)
				ops += subCount(ps.req)
				wire += subWireOf(ps.req)
				continue
			}
			scanning = false
		}
		rest = append(rest, ps)
	}
	clear(eg.pending[len(rest):]) // drop merged tail entries from the backing array
	eg.pending = rest
	eg.group = group
	return group
}

// maybeArmRegen arms the credit-loss detector: with fault injection on, a
// CreditTimeout set and sends parked, a check fires after the interval. It
// keeps re-arming while sends remain parked — the guarantee that a rank
// blocked on a lost ack is eventually released.
func (eg *egress) maybeArmRegen() {
	rt := eg.rt
	if rt.cfg.CreditTimeout <= 0 || rt.faultInj == nil || eg.regenArmed || len(eg.pending) == 0 {
		return
	}
	eg.regenArmed = true
	if eg.regenInterval <= 0 {
		eg.regenInterval = rt.cfg.CreditTimeout
	}
	last := eg.transmits
	rt.eng.AfterOn(eg.from, eg.regenInterval, func() { eg.regenCheck(last) })
}

// regenCheck decides whether the edge is starved: no transmission for a full
// interval with sends parked means a credit ack is presumed lost, so one
// credit is regenerated and the interval backs off (real congestion then
// costs little; genuine loss still recovers). Progress resets the backoff.
func (eg *egress) regenCheck(lastSeen uint64) {
	eg.regenArmed = false
	rt := eg.rt
	if len(eg.pending) == 0 {
		eg.regenInterval = rt.cfg.CreditTimeout
		return
	}
	if eg.transmits != lastSeen {
		eg.regenInterval = rt.cfg.CreditTimeout
		eg.maybeArmRegen()
		return
	}
	rt.st(eg.from).CreditRegens++
	eg.regenDebt++
	eg.credits++
	eg.drain()
	if eg.regenInterval < 8*rt.cfg.CreditTimeout {
		eg.regenInterval *= 2
	}
	eg.maybeArmRegen()
}

// transmit consumes a credit and injects the request into the fabric toward
// the peer's CHT. Delivery rides the runtime's pooled trampoline (enqueueFn)
// with the request itself as the argument — prevNode/nextNode stamped here
// are the delivery context a closure used to capture.
func (eg *egress) transmit(req *request) {
	if eg.credits <= 0 {
		panic(fmt.Sprintf("armci: egress %d->%d transmitting without credit", eg.from, eg.to))
	}
	eg.credits--
	eg.transmits++
	if req.kind == opBatch {
		eg.rt.st(eg.from).AggBatches++
		eg.rt.st(eg.from).AggBatchedOps += uint64(len(req.subs))
		if o := eg.rt.obs; o != nil {
			o.noteBatch(req)
		}
	}
	if eg.rt.obs != nil {
		if used := eg.inUse(); used > eg.peakInUse {
			eg.peakInUse = used
		}
	}
	req.prevNode = eg.from
	req.nextNode = eg.to
	eg.rt.st(eg.from).Requests++
	eg.rt.net.SendArg(eg.from, eg.to, req.wire, eg.rt.enqueueFn, req)
}

// inUse reports credits currently consumed (buffers occupied at the peer).
func (eg *egress) inUse() int { return eg.capacity - eg.credits }
