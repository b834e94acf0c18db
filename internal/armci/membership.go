package armci

import (
	"fmt"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// Heartbeat membership and online topology self-healing (Config.Heal).
//
// Detection is decentralized ring observation over the lines of the virtual
// topology (core.Lines: the cliques through a node, one per dimension of the
// grid family). On each line a node's members are ordered by ascending id,
// cyclically through the node itself. Every heartbeatInterval the node sends
// a small creditless probe to its next live member on each line and judges
// only its previous live member there, so a node sends one probe per line
// per period, not one per neighbor. Every protocol message arriving from a
// neighbor — request, credit ack, probe, notice — refreshes that neighbor's
// last-heard instant. A judged member silent for suspicionTimeout is
// suspected; for twice that, confirmed dead. Survivors learn of failures
// only through this service — never from the fault injector, whose ground
// truth is reserved for metrics (detection latency).
//
// Dissemination is one hop along the line. The observer that confirms a
// death notifies every other member of that line it holds live; the line is
// a clique, so each notice crosses one virtual edge, and its receiver acts
// exactly as if it had confirmed the death itself. The observer then judges
// the dead member's previous live member, with a fresh grace period. A node
// that hears from a member it holds dead notifies the line that the member
// is alive again, so the member's predecessor resumes probing it. A node
// rebooting after its own crash announces itself to every neighbor, and on
// each line the member that now judges it hands it the line's dead set.
//
// On confirmation (or notice) the survivor heals locally with no extra
// protocol round: sends parked on the dead edge replay through
// core.ReplacementHop's deterministically elected substitute forwarder (the
// first live hop of Topology.Hop; deadlock freedom of healed routes is not
// established, see core.ReplacementHop), ops with no live route fail their
// handles with *NodeFailedError, and the dead edge's outstanding credits are
// written off against regeneration debt so a late ack can never overflow
// the pool. In-flight chunks heal through their
// origin timeouts, which recompute the route (now avoiding the
// confirmed-dead node) on every retransmission.

// Failure-detector constants.
const (
	// heartbeatInterval is the monitor's probe period.
	heartbeatInterval = 100 * sim.Microsecond
	// suspicionTimeout is how long a judged member may stay silent before it
	// is suspected; confirmation takes twice this.
	suspicionTimeout = 300 * sim.Microsecond
	// heartbeatBytes is the wire size of one membership probe or notice.
	heartbeatBytes = 16
)

// DetectionBound is the worst-case latency from a node's crash to its
// observer's confirmation of it: 2*suspicionTimeout of silence plus two
// heartbeat rounds of tick quantization slack (800 us). An observer that
// took a member over from a dead one, or rebooted, is measured from that
// instant (see recordDetection). A notice receiver trails its observer by
// one hop, so it learns of a crash within k*DetectionBound plus that hop
// when the death closes a takeover chain of k adjacent crashes on its line.
const DetectionBound = 2*suspicionTimeout + 2*heartbeatInterval

// memberState is one neighbor's status in a node's local membership view.
type memberState uint8

const (
	memberAlive memberState = iota
	memberSuspect
	memberDead
)

// memberView is one node's failure-detector state over its neighbors,
// indexed like nodeState.nbrs. The per-neighbor slices are carved with the
// node's other edge state on its first edge use (nodeState.buildEdges);
// until then they are nil and every neighbor counts as alive and never
// heard. Traffic over an edge finds its entry by the edge's slot; a peer id
// alone is looked up by nbrIdx's binary search, not a map probe.
type memberView struct {
	lastHeard []sim.Time
	// state is written only through setState, which keeps dead, the number
	// of memberDead entries: isDead answers at once for a view holding no
	// dead neighbor, the common case even in a run with crashes.
	state []memberState
	dead  int
	// lines holds this node's ring on each of its lines, in core.Lines
	// order (which also fixes the deterministic probe and suspicion order),
	// once built (see rings).
	lines []ringLine
	// resetAt is when this view last started observing from scratch (0 at
	// start, the reboot instant after an owner crash). Detection latency is
	// measured from it when it postdates the peer's crash: an observer that
	// was itself down while a peer died cannot be charged for the outage.
	resetAt sim.Time
}

// ringLine is one line of the virtual topology as this node watches it: the
// line's other members as indices into nodeState.nbrs, in ascending id
// order, closed into a ring through this node, which sits between
// members[pos-1] and members[pos].
type ringLine struct {
	members []int32
	pos     int32
	// judged is the member this node judges (its previous live member, -1
	// for none), and since is when it started to.
	judged int32
	since  sim.Time
}

// succ returns the first member after this node on the ring that the view
// does not hold dead — the member it probes — or -1 if there is none.
func (ln *ringLine) succ(mv *memberView) int32 {
	n := len(ln.members)
	for k := 0; k < n; k++ {
		if i := ln.members[(int(ln.pos)+k)%n]; mv.state[i] != memberDead {
			return i
		}
	}
	return -1
}

// pred returns the last member before this node on the ring that the view
// does not hold dead — the member it judges — or -1 if there is none.
func (ln *ringLine) pred(mv *memberView) int32 {
	n := len(ln.members)
	for k := 1; k <= n; k++ {
		if i := ln.members[(int(ln.pos)-k+n)%n]; mv.state[i] != memberDead {
			return i
		}
	}
	return -1
}

// rings returns this node's rings, building them on first use — its first
// heartbeat round, unless a notice comes first. Built in New for every
// node, they added half again to a heal-armed 256-node set-up, so each
// monitor pays for its own instead. Judging starts from the view's
// last reset, as if the rings had existed all along.
func (ns *nodeState) rings() []ringLine {
	mv := ns.mv
	if mv.lines != nil {
		return mv.lines
	}
	lines := core.Lines(ns.rt.topo, ns.id)
	mv.lines = make([]ringLine, len(lines))
	members := make([]int32, len(ns.neighbors())) // lines partition the neighbors
	for l, line := range lines {
		ln := &mv.lines[l]
		ln.members, members = members[:len(line):len(line)], members[len(line):]
		for k, peer := range line {
			ln.members[k] = int32(ns.nbrIdx(peer))
			if peer < ns.id {
				ln.pos++
			}
		}
		ln.judged, ln.since = ln.pred(mv), mv.resetAt
	}
	return mv.lines
}

// lineOf returns the ring holding neighbor index i (every neighbor is on
// exactly one line).
func (ns *nodeState) lineOf(i int32) *ringLine {
	rings := ns.rings()
	for l := range rings {
		for _, j := range rings[l].members {
			if j == i {
				return &rings[l]
			}
		}
	}
	panic(fmt.Sprintf("armci: neighbor index %d is on no line", i))
}

// setState moves neighbor i of the view to state s, keeping the dead count.
func (mv *memberView) setState(i int, s memberState) {
	if mv.state[i] == memberDead {
		mv.dead--
	}
	if s == memberDead {
		mv.dead++
	}
	mv.state[i] = s
}

// isDead reports whether this node's membership view has confirmed node
// dead. Nodes outside the neighbor set are never dead (the view only tracks
// topology edges), and nothing is without healing armed.
func (ns *nodeState) isDead(node int) bool {
	if ns.mv == nil || ns.mv.dead == 0 { // also a view never built
		return false
	}
	i := ns.nbrIdx(node)
	return i >= 0 && ns.mv.state[i] == memberDead
}

// refresh marks every neighbor alive as of now — a node rebooting after its
// own crash must not act on a view gone stale during the outage — and
// restarts judging on every built line from now.
func (mv *memberView) refresh(now sim.Time) {
	mv.resetAt = now
	for i := range mv.lastHeard {
		mv.lastHeard[i] = now
		mv.setState(i, memberAlive)
	}
	for l := range mv.lines {
		ln := &mv.lines[l]
		ln.judged, ln.since = ln.pred(mv), now
	}
}

// heard records life from a neighbor: any message arriving at this node from
// it counts. A no-op unless healing is armed, or when from is not a
// virtual-topology neighbor (responses may bypass the topology). Hearing
// from a confirmed-dead neighbor means it recovered (or was wrongly
// confirmed): it rejoins, and the rest of its line is told.
func (ns *nodeState) heard(from int) {
	if ns.mv == nil {
		return
	}
	if i := ns.nbrIdx(from); i >= 0 {
		ns.heardAt(i)
	}
}

// heardAt is heard for the neighbor in slot i, for traffic that arrived
// over a known edge.
func (ns *nodeState) heardAt(i int) {
	mv := ns.mv
	if mv == nil {
		return
	}
	mv.lastHeard[i] = ns.rt.eng.Now()
	if was := mv.state[i]; was != memberAlive {
		mv.setState(i, memberAlive)
		if was == memberDead {
			ns.rejoin(i)
			ns.announce(ns.lineOf(int32(i)), ns.nbrs[i], true)
		}
	}
}

// monitorTick is one failure-detector round at this node: on every line it
// probes its successor and judges its predecessor. It runs in engine context
// (no daemon process) and re-arms itself through the runtime's tick
// trampoline (tickFn, with the node as argument), stopping once every rank
// process has finished so the event queue can drain and Run can return —
// the same termination rule sim.Watchdog uses.
func (ns *nodeState) monitorTick() {
	rt := ns.rt
	if rt.liveRanks == 0 {
		return
	}
	rt.eng.AfterOnArg(ns.id, heartbeatInterval, rt.tickFn, ns)
	if fi := rt.faultInj; fi != nil && fi.NodeDown(ns.id) {
		return // a crashed node probes and judges nothing until it reboots
	}
	now := rt.eng.Now()
	mv := ns.mv
	rings := ns.rings()
	for l := range rings {
		ln := &rings[l]
		// A dead receiver's NIC drops the probe in the fabric. The edge's
		// egress record rides along as the argument, so a probe allocates
		// no closure.
		if s := ln.succ(mv); s >= 0 {
			rt.net.SendArg(ns.id, ns.nbrs[s], heartbeatBytes, rt.probeFn, ns.egAt(int(s)))
			rt.st(ns.id).Probes++
		}
		ns.judge(ln, now)
	}
}

// judge applies the suspicion rule to the line's previous live member.
// Silence counts from the later of its last message and the instant this
// node started judging it, so a member taken over from a dead one (or one
// that just rejoined) gets a full grace period.
func (ns *nodeState) judge(ln *ringLine, now sim.Time) {
	rt := ns.rt
	mv := ns.mv
	p := ln.pred(mv)
	if p != ln.judged {
		ln.judged, ln.since = p, now
	}
	if p < 0 {
		return
	}
	peer := ns.nbrs[p]
	gap := now - max(mv.lastHeard[p], ln.since)
	switch mv.state[p] {
	case memberAlive:
		if gap >= suspicionTimeout {
			mv.setState(int(p), memberSuspect)
			rt.st(ns.id).Suspicions++
			rt.noteMembership("suspect", ns.id, peer)
		}
	case memberSuspect:
		if gap >= 2*suspicionTimeout {
			mv.setState(int(p), memberDead)
			rt.st(ns.id).Confirms++
			ns.recordDetection(peer, ln.since)
			rt.noteMembership("confirm", ns.id, peer)
			ns.healDeadNeighbor(int(p))
			ns.announce(ln, peer, false)
			ln.judged, ln.since = ln.pred(mv), now
		}
	}
}

// notice is one membership notice in flight from one line member to
// another: subject is dead, or alive again, as of sent (the sender's clock
// at the send). A notice whose subject is its sender is a rebooted node
// announcing itself.
type notice struct {
	from, to, subject int
	alive             bool
	sent              sim.Time
}

// announce tells every other member of line ln that this node holds live that
// subject is dead (alive=false) or alive again. The line is a clique, so
// each notice is one virtual hop.
func (ns *nodeState) announce(ln *ringLine, subject int, alive bool) {
	for _, i := range ln.members {
		if peer := ns.nbrs[i]; peer != subject && ns.mv.state[i] != memberDead {
			ns.sendNotice(peer, subject, alive)
		}
	}
}

// sendNotice sends one creditless notice about subject to neighbor to.
func (ns *nodeState) sendNotice(to, subject int, alive bool) {
	rt := ns.rt
	rt.st(ns.id).Notices++
	rt.net.SendArg(ns.id, to, heartbeatBytes, rt.noticeFn,
		&notice{from: ns.id, to: to, subject: subject, alive: alive, sent: rt.eng.Now()})
}

// onNotice applies a notice at its receiver. A death is taken as if this
// node had confirmed it, unless this node has heard from the subject since
// the notice was sent: a crashed node's traffic dies with it, so that
// subject rebooted while the notice was in flight (its announcement
// overtook the notice on another fabric path) and stays alive. A life
// reinstates a subject held dead. A rebooted
// subject announcing itself always rejoins, confirmed or not — its buffer
// pools are fresh either way — and if this node now judges it, the node
// hands it the line's dead set, which the reboot wiped from its view.
func (ns *nodeState) onNotice(n *notice) {
	mv := ns.mv
	i := int32(ns.nbrIdx(n.subject))
	if n.alive {
		reboot := n.from == n.subject
		if reboot || mv.state[i] == memberDead {
			mv.setState(int(i), memberAlive)
			ns.rejoin(int(i))
		}
		ns.heard(n.from)
		if ln := ns.lineOf(i); reboot && ln.pred(mv) == i {
			for _, j := range ln.members {
				if mv.state[j] == memberDead {
					ns.sendNotice(n.from, ns.nbrs[j], false)
				}
			}
		}
		return
	}
	ns.heard(n.from)
	if mv.state[i] == memberDead || mv.lastHeard[i] > n.sent {
		return
	}
	mv.setState(int(i), memberDead)
	rt := ns.rt
	if lat, ok := ns.sinceCrash(n.subject, 0); ok {
		if lat > rt.st(ns.id).MaxNotifyLatency {
			rt.st(ns.id).MaxNotifyLatency = lat
		}
		if o := rt.obs; o != nil && o.notifyLat != nil {
			o.notifyLat.Observe(lat.Micros())
		}
	}
	rt.noteMembership("informed", ns.id, n.subject)
	ns.healDeadNeighbor(int(i))
}

// rejoin reinstates the recovered neighbor in slot i: its buffer pools were
// reallocated from scratch at reboot, so this node's egress toward it resets
// to a full fresh credit pool (any ack still in flight from before the crash
// is swallowed as stale by release).
func (ns *nodeState) rejoin(i int) {
	ns.rt.st(ns.id).Rejoins++
	ns.egAt(i).reset()
	ns.rt.noteMembership("rejoin", ns.id, ns.nbrs[i])
}

// healDeadNeighbor repairs this node's state against the confirmed-dead
// neighbor in slot i: parked sends replay through a replacement forwarder
// and the dead edge's consumed credits are written off (as regeneration
// debt, so late real acks cannot overflow the pool).
func (ns *nodeState) healDeadNeighbor(i int) {
	rt := ns.rt
	dead := ns.nbrs[i]
	eg := ns.egAt(i)
	for _, ps := range eg.pending.takeAll() {
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
// walks Topology.Hop's admissible hops in NextHop's order), so every
// survivor with the same view converges on the same route. Sends with no
// live admissible route fail their handles; upstream buffers are released
// either way.
func (ns *nodeState) replayParked(ps *pendingSend, dead int) {
	rt := ns.rt
	req := ps.req
	targetNode := int(req.target) / rt.cfg.PPN
	hop, ok := core.ReplacementHop(rt.topo, ns.id, targetNode, ns.isDead)
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

// recordDetection measures an observer's confirmation latency against the
// injector's ground truth (the only place protocol-adjacent code may consult
// it — it feeds metrics, not decisions), from judging: the instant this
// observer started judging the peer.
func (ns *nodeState) recordDetection(peer int, judging sim.Time) {
	rt := ns.rt
	lat, ok := ns.sinceCrash(peer, judging)
	if !ok {
		return
	}
	if lat > rt.st(ns.id).MaxDetectLatency {
		rt.st(ns.id).MaxDetectLatency = lat
	}
	if o := rt.obs; o != nil && o.detectLat != nil {
		o.detectLat.Observe(lat.Micros())
	}
}

// sinceCrash returns how long ago peer crashed, as this node can be charged
// for it: the clock starts at the latest of the crash, this node's own view
// reset (a node that was down when the peer died only starts observing at
// its reboot) and from. It reports false when peer never crashed.
func (ns *nodeState) sinceCrash(peer int, from sim.Time) (sim.Time, bool) {
	rt := ns.rt
	now := rt.eng.Now()
	crashed, ok := rt.faultInj.CrashedAt(peer)
	if !ok || crashed > now {
		return 0, false
	}
	return now - max(crashed, ns.mv.resetAt, from), true
}

// ---------- Crash-stop semantics (armed with or without healing) ----------

// onNodeChange is the fault injector's transition callback, registered in
// New whenever the schedule contains node: faults. It applies the local
// crash (or reboot) atomically, in engine context; survivor-side reaction
// comes only from membership detection.
func (rt *Runtime) onNodeChange(node int, down bool) {
	if down {
		rt.node(node).crashStop()
	} else {
		rt.node(node).recoverNode()
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
	for _, eg := range ns.eg {
		if eg == nil {
			continue
		}
		for _, ps := range eg.pending.live() {
			// Unblock any of this node's ranks parked on a credit; their
			// handles fail below. Forward finish callbacks are dropped —
			// the buffers they would release died with this node — and
			// waiterless records go straight back to the pool.
			if ps.hasGate {
				ps.gate.Fire()
			} else {
				ns.putPS(ps)
			}
		}
		eg.pending.keep(0)
	}
	err := &NodeFailedError{Node: ns.id}
	for r := ns.id * rt.cfg.PPN; r < (ns.id+1)*rt.cfg.PPN; r++ {
		sc := rt.ranks[r].pool
		if sc == nil {
			continue
		}
		sc.agg = nil // buffered aggregation dies unflushed
		for _, h := range sc.outstanding {
			h.failAll(err)
		}
		for h := sc.held; h != nil; h = h.next {
			h.failAll(err)
		}
	}
}

// recoverNode reboots this node: fresh credit pools on every egress (its
// neighbors' buffer state toward it is rebuilt on their side when they see
// it rejoin) and a refreshed membership view, so the reboot does not act on
// silence accumulated while it was down. With healing armed it announces
// itself to every neighbor (see onNotice).
func (ns *nodeState) recoverNode() {
	rt := ns.rt
	for _, eg := range ns.eg {
		if eg != nil {
			eg.reset()
		}
	}
	if ns.mv != nil {
		nbrs := ns.neighbors() // the refreshed view covers every neighbor
		ns.mv.refresh(rt.eng.Now())
		for _, peer := range nbrs {
			ns.sendNotice(peer, ns.id, true)
		}
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
	if rt.healArmed && rt.node(originNode).isDead(targetNode) {
		return &NodeFailedError{Node: targetNode}
	}
	return nil
}

// abortChunks fails each request's chunk with err after LocalLatency (never
// synchronously: the issuing rank may be about to park on the handle).
func (rt *Runtime) abortChunks(err error, reqs ...*request) {
	for _, req := range reqs {
		origin := int(req.originNode)
		rt.st(origin).NodeAborts++
		h, chunk := req.h, int(req.chunk)
		if h == nil {
			continue
		}
		rt.eng.AfterOn(origin, rt.cfg.LocalLatency, func() { h.failChunk(chunk, err) })
	}
}

// noteMembership emits a Chrome-trace instant for a membership transition
// (crash, recover, suspect, confirm, informed, heal, rejoin) at node, about
// peer.
func (rt *Runtime) noteMembership(what string, node, peer int) {
	o := rt.obs
	if o == nil || o.tr == nil {
		return
	}
	o.tr.Instant(fmt.Sprintf("%s node%d", what, peer),
		"membership", o.pid, node, rt.eng.Now(), map[string]any{"peer": peer})
}
