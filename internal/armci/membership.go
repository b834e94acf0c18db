package armci

import (
	"fmt"
	"sort"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// Heartbeat membership and online topology self-healing (Config.Heal).
//
// Detection is fully decentralized: every node's monitor probes its
// virtual-topology neighbors each heartbeatInterval with a small creditless
// heartbeat, and every protocol message arriving from a neighbor — request,
// credit ack, adaptive grant/revoke, heartbeat — refreshes that neighbor's
// last-heard instant (the piggybacking that keeps detection nearly free on
// busy edges). A neighbor silent for suspicionTimeout is suspected; for
// twice that, confirmed dead. Survivors learn of failures only through this
// service — never from the fault injector, whose ground truth is reserved
// for metrics (detection latency).
//
// On confirmation the survivor heals locally with no extra protocol round:
// sends parked on the dead edge replay through core.ReplacementHop's
// deterministically elected substitute forwarder (an admissible LDF hop, so
// the D <= M hop bound survives; deadlock freedom of healed routes is not
// established, see core.ReplacementHop), ops with no live route fail
// their handles with *NodeFailedError, and the dead edge's outstanding
// credits are written off against regeneration debt so a late ack can never
// overflow the pool. In-flight chunks heal through their origin timeouts,
// which recompute the route (now avoiding the confirmed-dead node) on every
// retransmission.

// Failure-detector constants.
const (
	// heartbeatInterval is the monitor's probe period.
	heartbeatInterval = 100 * sim.Microsecond
	// suspicionTimeout is how long a neighbor may stay silent before it is
	// suspected; confirmation takes twice this.
	suspicionTimeout = 300 * sim.Microsecond
	// heartbeatBytes is the wire size of one membership probe.
	heartbeatBytes = 16
)

// DetectionBound is the worst-case latency from a node's crash to a
// neighbor's confirmation of it: 2*suspicionTimeout of silence plus two
// heartbeat rounds of tick quantization slack (800 us).
const DetectionBound = 2*suspicionTimeout + 2*heartbeatInterval

// memberState is one neighbor's status in a node's local membership view.
type memberState uint8

const (
	memberAlive memberState = iota
	memberSuspect
	memberDead
)

// memberView is one node's failure-detector state over its neighbors.
type memberView struct {
	nbrs      []int // sorted, for deterministic probe and suspicion order
	lastHeard map[int]sim.Time
	state     map[int]memberState
	// resetAt is when this view last started observing from scratch (0 at
	// start, the reboot instant after an owner crash). Detection latency is
	// measured from it when it postdates the peer's crash: an observer that
	// was itself down while a peer died cannot be charged for the outage.
	resetAt sim.Time
}

func newMemberView(neighbors []int) *memberView {
	nbrs := append([]int(nil), neighbors...)
	sort.Ints(nbrs)
	mv := &memberView{
		nbrs:      nbrs,
		lastHeard: make(map[int]sim.Time, len(nbrs)),
		state:     make(map[int]memberState, len(nbrs)),
	}
	for _, n := range nbrs {
		mv.lastHeard[n] = 0
	}
	return mv
}

// isDead reports whether node is confirmed dead in this view. Nodes outside
// the neighbor set are never dead (the view only tracks topology edges).
func (mv *memberView) isDead(node int) bool {
	return mv != nil && mv.state[node] == memberDead
}

// refresh marks every neighbor alive as of now — a node rebooting after its
// own crash must not act on a view gone stale during the outage.
func (mv *memberView) refresh(now sim.Time) {
	mv.resetAt = now
	for _, n := range mv.nbrs {
		mv.lastHeard[n] = now
		mv.state[n] = memberAlive
	}
}

// heard records life from a neighbor: any message arriving at this node from
// it counts. A no-op unless healing is armed, or when from is not a
// virtual-topology neighbor (responses may bypass the topology). Hearing
// from a confirmed-dead neighbor means it recovered and rejoined.
func (ns *nodeState) heard(from int) {
	mv := ns.mv
	if mv == nil {
		return
	}
	if _, ok := mv.lastHeard[from]; !ok {
		return
	}
	mv.lastHeard[from] = ns.rt.eng.NowOn(ns.id)
	if mv.state[from] != memberAlive {
		was := mv.state[from]
		mv.state[from] = memberAlive
		if was == memberDead {
			ns.rejoin(from)
		}
	}
}

// monitorTick is one failure-detector round at this node. It runs in engine
// context (no daemon process) and re-arms itself with After, stopping once
// every rank process has finished so the event queue can drain and Run can
// return — the same termination rule sim.Watchdog uses.
func (ns *nodeState) monitorTick() {
	rt := ns.rt
	if rt.liveRanks == 0 {
		return
	}
	rt.eng.AfterOn(ns.id, heartbeatInterval, ns.monitorTick)
	if fi := rt.faultInj; fi != nil && fi.NodeDown(ns.id) {
		return // a crashed node probes and judges nothing until it reboots
	}
	now := rt.eng.NowOn(ns.id)
	st := suspicionTimeout
	for i, peer := range ns.mv.nbrs {
		// Probe unconditionally — heartbeats to a dead-view peer double as
		// rejoin detection the moment it comes back. A dead receiver's NIC
		// drops the probe in the fabric. The edge's egress record rides along
		// as the argument (mv.nbrs is indexed like ns.nbrs), so a probe
		// allocates no closure.
		rt.net.SendArg(ns.id, peer, heartbeatBytes, rt.probeFn, ns.egAt(i))
		gap := now - ns.mv.lastHeard[peer]
		switch ns.mv.state[peer] {
		case memberAlive:
			if gap >= st {
				ns.mv.state[peer] = memberSuspect
				rt.st(ns.id).Suspicions++
				rt.noteMembership("suspect", ns.id, peer)
			}
		case memberSuspect:
			if gap >= 2*st {
				ns.mv.state[peer] = memberDead
				rt.st(ns.id).Confirms++
				ns.recordDetection(peer, now)
				rt.noteMembership("confirm", ns.id, peer)
				ns.healDeadNeighbor(peer)
			}
		}
	}
}

// rejoin reinstates a recovered neighbor: its buffer pools were reallocated
// from scratch at reboot, so this node's egress toward it resets to a full
// fresh credit pool (any ack still in flight from before the crash is
// swallowed as stale by release).
func (ns *nodeState) rejoin(peer int) {
	ns.rt.st(ns.id).Rejoins++
	ns.egAt(ns.nbrIdx(peer)).reset()
	ns.rt.noteMembership("rejoin", ns.id, peer)
}

// healDeadNeighbor repairs this node's state against a confirmed-dead peer:
// parked sends replay through a replacement forwarder and the dead edge's
// consumed credits are written off (as regeneration debt, so late real acks
// cannot overflow the pool).
func (ns *nodeState) healDeadNeighbor(dead int) {
	rt := ns.rt
	eg := ns.egAt(ns.nbrIdx(dead))
	parked := eg.pending
	eg.pending = nil
	for _, ps := range parked {
		ns.replayParked(ps, dead)
	}
	if w := eg.inUse(); w > 0 {
		rt.st(ns.id).CreditWriteOffs += uint64(w)
		eg.regenDebt += w
		eg.credits += w
	}
	rt.noteMembership("heal", ns.id, dead)
}

// replayParked re-routes one send that was parked on a now-dead edge. The
// replacement forwarder is elected deterministically (core.ReplacementHop
// walks admissible LDF hops in dimension order), so every survivor with the
// same view converges on the same route. Sends with no live admissible
// route fail their handles; upstream buffers are released either way.
func (ns *nodeState) replayParked(ps *pendingSend, dead int) {
	rt := ns.rt
	req := ps.req
	targetNode := req.target / rt.cfg.PPN
	hop, ok := core.ReplacementHop(rt.topo, ns.id, targetNode, ns.mv.isDead)
	if !ok {
		rt.st(ns.id).HealFails++
		ns.failSubs(req, &NodeFailedError{Node: dead})
		ns.completeParked(ps)
		return
	}
	eg, err := rt.egressFor(ns.id, hop)
	if err != nil {
		rt.st(ns.id).NoRoutes++
		rt.st(ns.id).HealFails++
		ns.failSubs(req, err)
		ns.completeParked(ps)
		return
	}
	rt.st(ns.id).HealReplays++
	eg.submitParked(ps)
}

// recordDetection measures confirmation latency against the injector's
// ground truth (the only place protocol-adjacent code may consult it — it
// feeds metrics, not decisions). The clock starts at the crash or at this
// observer's own view reset, whichever is later: a node that was itself down
// when the peer died only starts observing silence at its reboot.
func (ns *nodeState) recordDetection(peer int, now sim.Time) {
	rt := ns.rt
	crashed, ok := rt.faultInj.CrashedAt(peer)
	if !ok || crashed > now {
		return
	}
	if ns.mv.resetAt > crashed {
		crashed = ns.mv.resetAt
	}
	lat := now - crashed
	if lat > rt.st(ns.id).MaxDetectLatency {
		rt.st(ns.id).MaxDetectLatency = lat
	}
	if o := rt.obs; o != nil && o.detectLat != nil {
		o.detectLat.Observe(lat.Micros())
	}
}

// ---------- Crash-stop semantics (armed with or without healing) ----------

// onNodeChange is the fault injector's transition callback, registered in
// New whenever the schedule contains node: faults. It applies the local
// crash (or reboot) atomically, in engine context; survivor-side reaction
// comes only from membership detection.
func (rt *Runtime) onNodeChange(node int, down bool) {
	if down {
		rt.nodes[node].crashStop()
	} else {
		rt.nodes[node].recoverNode()
	}
}

// crashStop kills this node's volatile state at the crash instant: queued
// CHT requests die with the node's memory, sends parked on its egresses
// vanish, and every outstanding operation issued by the node's own ranks
// fails with *NodeFailedError — a crashed origin can never observe
// completion. The CHT daemon itself keeps draining (and dropping) so
// post-recovery traffic is served; the rid dedup table survives, modeling
// stable storage, which keeps at-most-once apply intact across the outage.
func (ns *nodeState) crashStop() {
	rt := ns.rt
	rt.noteMembership("crash", ns.id, ns.id)
	ns.inbox.Clear()
	for i := range ns.pendingBySrc {
		ns.pendingBySrc[i] = 0
	}
	ns.pendingSrcs = 0
	for i := range ns.nbrs {
		eg := ns.egAt(i)
		for j, ps := range eg.pending {
			// Unblock any of this node's ranks parked on a credit; their
			// handles fail below. Forward finish callbacks are dropped —
			// the buffers they would release died with this node — and
			// waiterless records go straight back to the pool.
			if ps.hasGate {
				ps.gate.Fire()
			} else {
				ns.putPS(ps)
			}
			eg.pending[j] = nil
		}
		eg.pending = eg.pending[:0]
	}
	err := &NodeFailedError{Node: ns.id}
	for r := ns.id * rt.cfg.PPN; r < (ns.id+1)*rt.cfg.PPN; r++ {
		rk := &rt.ranks[r]
		rk.agg = nil // buffered aggregation dies unflushed
		for _, h := range rk.outstanding {
			h.failAll(err)
		}
	}
}

// recoverNode reboots this node: fresh credit pools on every egress (its
// neighbors' buffer state toward it is rebuilt on their side when they see
// it rejoin) and a refreshed membership view, so the reboot does not act on
// silence accumulated while it was down.
func (ns *nodeState) recoverNode() {
	rt := ns.rt
	for i := range ns.nbrs {
		ns.egAt(i).reset()
	}
	if ns.mv != nil {
		ns.mv.refresh(rt.eng.Now())
	}
	rt.noteMembership("recover", ns.id, ns.id)
}

// deadRouteErr returns the crash-stop failure applying to a request from
// originNode to targetNode, or nil: the origin's own node is down (crash
// semantics, armed with any node fault), or the origin's membership view
// has confirmed the target dead (fail-fast, armed only with healing).
func (rt *Runtime) deadRouteErr(originNode, targetNode int) error {
	if fi := rt.faultInj; fi != nil && fi.NodeDown(originNode) {
		return &NodeFailedError{Node: originNode}
	}
	if rt.healArmed && rt.nodes[originNode].mv.isDead(targetNode) {
		return &NodeFailedError{Node: targetNode}
	}
	return nil
}

// abortChunks fails each request's chunk with err after LocalLatency (never
// synchronously: the issuing rank may be about to park on the handle).
func (rt *Runtime) abortChunks(err error, reqs ...*request) {
	for _, req := range reqs {
		rt.st(req.originNode).NodeAborts++
		h, chunk := req.h, req.chunk
		if h == nil {
			continue
		}
		rt.eng.AfterOn(req.originNode, rt.cfg.LocalLatency, func() { h.failChunk(chunk, err) })
	}
}

// noteMembership emits a Chrome-trace instant for a membership transition
// (crash, recover, suspect, confirm, heal, rejoin) at node, about peer.
func (rt *Runtime) noteMembership(what string, node, peer int) {
	o := rt.obs
	if o == nil || o.tr == nil {
		return
	}
	o.tr.Instant(fmt.Sprintf("%s node%d", what, peer),
		"membership", o.pid, node, rt.eng.Now(), map[string]any{"peer": peer})
}
