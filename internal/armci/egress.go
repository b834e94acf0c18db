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
	// credits counts the buffers free at the peer, at most the runtime's
	// poolCap.
	credits int
	pending parkedFIFO
	// group is drain's reusable batch list (see gather).
	group []*pendingSend
	// label caches the formatted deadlock-report label for parked origin
	// sends (formatted at most once per edge, not once per wait).
	label string
	// peakInUse is the most buffers ever simultaneously occupied at the
	// peer over this edge; tracked only when observability is enabled.
	peakInUse int

	// Credit-loss recovery (active only with fault injection and a
	// CreditTimeout): when sends sit parked for a full interval with no
	// transmission, the edge assumes a credit ack was dropped on a failed
	// link and regenerates one credit. regenDebt counts regenerations not
	// yet matched by a late real ack — release() pays the debt down before
	// growing the pool, so the pool never exceeds poolCap.
	regenDebt     int
	regenArmed    bool
	regenInterval sim.Time
	transmits     uint64 // progress signal for the regen check

	// slot is the edge's index in from's neighbor list, fixed at build.
	// rev is from's index in to's list, -1 until to first needs it; only
	// to's owner context reads or writes it (enqueue, finish, probes), so
	// a request or probe arriving over the edge finds its per-edge slot at
	// the receiver without a search.
	slot, rev int32
}

// parkedFIFO is an egress's queue of parked sends, oldest first: the live
// entries are q[head:]. A pop advances head rather than re-slicing q, so the
// array keeps its front capacity; it rewinds to the start whenever it
// empties, and a push that finds it full with at least half its slots
// popped slides the live entries down instead of growing it. A steady
// backlog therefore reuses one array.
type parkedFIFO struct {
	q    []*pendingSend
	head int
}

// len returns the number of parked sends.
func (f *parkedFIFO) len() int { return len(f.q) - f.head }

// live returns the parked sends, oldest first, as a view of the FIFO's array.
func (f *parkedFIFO) live() []*pendingSend { return f.q[f.head:] }

// push parks ps behind every live entry.
func (f *parkedFIFO) push(ps *pendingSend) {
	if len(f.q) == cap(f.q) && f.head > 0 && 2*f.head >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, ps)
}

// pop removes and returns the oldest parked send; the FIFO must not be
// empty.
func (f *parkedFIFO) pop() *pendingSend {
	ps := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return ps
}

// keep truncates the FIFO to the first n live entries, once the caller has
// compacted the ones it keeps, in order, to the front of live().
func (f *parkedFIFO) keep(n int) {
	clear(f.q[f.head+n:])
	f.q = f.q[:f.head+n]
	if n == 0 {
		f.q, f.head = f.q[:0], 0
	}
}

// takeAll empties the FIFO and returns what was parked, oldest first. The
// caller owns the returned slice: the FIFO lets go of its array, since
// whatever the caller does with the entries may park sends here again.
func (f *parkedFIFO) takeAll() []*pendingSend {
	live := f.q[f.head:]
	f.q, f.head = nil, 0
	return live
}

// pendingSend is one send parked on an egress waiting for a buffer credit.
// Records are carved from the runtime's slab (edgeSlabs.carvePS) and recycle
// through their node's free list (nodeState.psFree, linked through next), so
// a congested edge churns no heap objects: an origin send embeds its
// completion gate by value, a CHT forward instead carries the
// owner/upstream-edge pair finish() needs when the request finally leaves,
// and freed guards the free list against double release.
type pendingSend struct {
	req *request
	// gate is armed (hasGate true) for origin sends: the issuing rank waits
	// on it and releases the record itself after Wait returns — drain never
	// recycles a record a parked waiter could still observe.
	gate    sim.Gate
	hasGate bool
	// fwdOwner/fwdUp are set for CHT forwards: at transmission,
	// fwdOwner.finish(fwdUp) releases the upstream request buffer.
	fwdOwner *nodeState
	fwdUp    *egress
	enq      sim.Time
	freed    bool
	next     *pendingSend // free-list link, nil while in use
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
	if eg.pending.len() == 0 && eg.credits > 0 {
		eg.transmit(req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ns := eg.rt.node(eg.from)
	ps := ns.getPS()
	ps.req = req
	ps.hasGate = true
	ps.gate.Init(eg.rt.eng, eg.creditLabel())
	ps.enq = eg.rt.eng.Now()
	eg.pending.push(ps)
	eg.maybeArmRegen()
	ps.gate.Wait(p) // wait time is accounted in drain()
	ns.putPS(ps)    // the waiter owns the release — see putPS
}

// submitForward transmits a CHT forward without blocking. owner (with up, the
// edge the request arrived over) identifies the upstream buffer to release
// when the request actually leaves this node — owner.finish(up) runs at
// transmission; a nil owner (the retransmission path) skips it.
func (eg *egress) submitForward(req *request, owner *nodeState, up *egress) {
	if eg.pending.len() == 0 && eg.credits > 0 {
		eg.transmit(req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		if owner != nil {
			owner.finish(up)
		}
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ps := eg.rt.node(eg.from).getPS()
	ps.req = req
	ps.fwdOwner = owner
	ps.fwdUp = up
	ps.enq = eg.rt.eng.Now()
	eg.pending.push(ps)
	eg.maybeArmRegen()
}

// submitParked re-submits a send that already holds its pendingSend record —
// the healing path replaying a parked send through a replacement forwarder
// (membership.go). It counts like a fresh submission (CreditWaits, enq) so a
// healed run's accounting matches one that never parked on the dead edge.
func (eg *egress) submitParked(ps *pendingSend) {
	if eg.pending.len() == 0 && eg.credits > 0 {
		eg.transmit(ps.req)
		if o := eg.rt.obs; o != nil {
			o.creditWait.Observe(0)
		}
		eg.rt.node(eg.from).completeParked(ps)
		return
	}
	eg.rt.st(eg.from).CreditWaits++
	ps.enq = eg.rt.eng.Now()
	eg.pending.push(ps)
	eg.maybeArmRegen()
}

// completeParked runs a parked send's post-transmission (or abort) duties:
// release the upstream buffer for forwards, wake the waiting rank for origin
// sends. The record returns to the pool here only when no waiter can still
// observe it — a gated record is released by its own waiter (submitRank).
func (ns *nodeState) completeParked(ps *pendingSend) {
	if ps.fwdOwner != nil {
		ps.fwdOwner.finish(ps.fwdUp)
	}
	if ps.hasGate {
		ps.gate.Fire()
	} else {
		ns.putPS(ps)
	}
}

// release returns one buffer credit and drains the pending FIFO. A credit
// already regenerated against this edge's debt is swallowed instead: the
// pool must not exceed poolCap. With healing armed, an ack that would
// overflow an already-full pool is stale — sent before a crash/heal cycle
// reset or wrote off this edge — and is swallowed too.
func (eg *egress) release() {
	switch {
	case eg.regenDebt > 0:
		eg.regenDebt--
	case eg.rt.healArmed && eg.credits >= eg.rt.poolCap:
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
// has sends waiting here for credits its crash will never return.
func (eg *egress) reset() {
	eg.credits = eg.rt.poolCap
	eg.regenDebt = 0
	eg.regenInterval = 0
	eg.drain()
}

// drain transmits parked sends while credits last. With aggregation on,
// each freed credit first coalesces the head's same-target batchable run
// into a single packet (gather), so a contended edge moves its backlog in
// batches rather than one operation per credit.
func (eg *egress) drain() {
	for eg.pending.len() > 0 && eg.credits > 0 {
		ps := eg.pending.pop()
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
		now := eg.rt.eng.Now()
		owner := eg.rt.node(eg.from)
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
	if !cfg.Agg.Enabled || eg.pending.len() == 0 || !coalescable(head.req) {
		return group
	}
	tn := int(head.req.target) / cfg.PPN
	ops := subCount(head.req)
	wire := headerBytes + subWireOf(head.req)
	// Merged sends leave the FIFO; the rest are compacted in place, in
	// order (rest never overtakes the scan).
	live := eg.pending.live()
	rest := live[:0]
	scanning := true
	for _, ps := range live {
		if scanning && int(ps.req.target)/cfg.PPN == tn {
			if coalescable(ps.req) &&
				ops+subCount(ps.req) <= aggMaxOps &&
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
	eg.pending.keep(len(rest))
	eg.group = group
	return group
}

// maybeArmRegen arms the credit-loss detector: with fault injection on, a
// CreditTimeout set and sends parked, a check fires after the interval. It
// keeps re-arming while sends remain parked — the guarantee that a rank
// blocked on a lost ack is eventually released.
func (eg *egress) maybeArmRegen() {
	rt := eg.rt
	if rt.cfg.CreditTimeout <= 0 || rt.faultInj == nil || eg.regenArmed || eg.pending.len() == 0 {
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
	if eg.pending.len() == 0 {
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
// with the request itself as the argument — up stamped here is the delivery
// context a closure used to capture: the hop is delivered at up.to.
func (eg *egress) transmit(req *request) {
	if eg.credits <= 0 {
		panic(fmt.Sprintf("armci: egress %d->%d transmitting without credit", eg.from, eg.to))
	}
	eg.credits--
	eg.transmits++
	if req.kind == opBatch {
		eg.rt.st(eg.from).AggBatches++
		eg.rt.st(eg.from).AggBatchedOps += uint64(len(*req.subs))
		if o := eg.rt.obs; o != nil {
			o.noteBatch(req)
		}
	}
	if eg.rt.obs != nil {
		if used := eg.inUse(); used > eg.peakInUse {
			eg.peakInUse = used
		}
	}
	req.up = eg
	eg.rt.st(eg.from).Requests++
	eg.rt.net.SendArg(eg.from, eg.to, int(req.wire), eg.rt.enqueueFn, req)
}

// inUse reports credits currently consumed (buffers occupied at the peer).
func (eg *egress) inUse() int { return eg.rt.poolCap - eg.credits }
