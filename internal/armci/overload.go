package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Overload protection (Config.Overload): origin-side AIMD injection pacing,
// admission control and deadline-aware load shedding, driven by the fabric's
// ECN-style congestion-experienced marks echoed on end-to-end responses.
//
// The control loop is entirely origin-local. Requests and responses crossing
// a port whose queueing delay exceeds Fabric.CongestionThreshold are stamped
// with a CE mark (fabric.SendArg); the origin folds each response's mark
// into a per-destination pacer (onAck). A marked response widens the pacer's
// injection gap multiplicatively, a clean one decays it additively, and the
// current gap positions the origin on the degradation ladder documented on
// OverloadConfig: pace, then coalesce harder, then shed. Every path below is
// gated on Runtime.overloadArmed, so disabled runs are bit-identical to the
// seed protocol.

// Overload-protection model constants. Only the pace floor and the pending-op
// budget are settable (OverloadConfig).
const (
	// congestionThreshold is the fabric queue delay that stamps a CE mark,
	// or the occupancy signal of an ejection port past half its stream
	// limit; New hands it to fabric.Config.CongestionThreshold. It sits just
	// above the serialization of a few back-to-back aggregated batches:
	// early marks are the whole game, because fabric ports price each
	// message's serialization at arrival — backlog admitted before the first
	// cut stays priced at the congested rate no matter how hard origins back
	// off afterwards.
	congestionThreshold = 10 * sim.Microsecond
	// paceCeil caps the gap. The ceiling bounds the worst per-destination
	// backoff; it must be deep enough that the whole origin population
	// backed off to it injects below the congested port's drain rate, or
	// pacing cannot clear a standing backlog.
	paceCeil = 5 * sim.Millisecond
	// paceDecay is the additive gap shrink per clean response — the
	// counterpart of TCP's additive increase; deeply backed-off pacers
	// recover through decayHalflife instead.
	paceDecay = 250 * sim.Nanosecond
	// paceBackoff is the multiplicative gap growth applied on a CE-marked
	// response, at most once per gap interval so one congestion episode
	// does not compound through every ack it marked.
	paceBackoff = 2.0
	// slamRTT is the round-trip delay past which a CE-marked response is
	// treated as evidence of a standing backlog rather than transient
	// contention: the pacer jumps straight to paceCeil instead of doubling
	// toward it. Doubling converges in a few steps, but each step costs one
	// round trip *through the backlog being reported* — multi-millisecond
	// when a port has collapsed — so gradual backoff discovers the
	// drain-capable gap long after the run is lost (the pacing analogue of
	// TCP collapsing its window on a retransmission timeout). At 50 us it
	// is 5x the CE marking threshold: it must sit just above the healthy
	// round trip, because a port's stream penalty can engage at a queue
	// depth whose delay is far smaller than the backlog the penalty then
	// builds.
	slamRTT = 50 * sim.Microsecond
	// decayHalflife halves a pacer's gap per elapsed interval of virtual
	// time since the last backoff, independent of response arrivals.
	// Clean-response decay alone cannot recover a deeply backed-off pacer
	// promptly: at a multi-millisecond gap it sees one response per gap, so
	// recovery would take a geometric sum of gaps. Time-based decay
	// re-probes a slammed destination within a few halflives regardless of
	// how little traffic is flowing.
	decayHalflife = 500 * sim.Microsecond
	// coalesceAt is the gap at which the ladder's coalesce rung engages.
	coalesceAt = paceCeil / 4
	// shedAt is the gap at which class shedding engages.
	shedAt = paceCeil / 2
)

// pacer is one origin node's AIMD injection state toward one destination
// node. Both updates (response arrivals, onAck) and reads (admission, pace)
// run in the origin node's owner context, so no lock is needed and sharded
// runs stay deterministic.
type pacer struct {
	gap      sim.Time // current inter-injection gap; 0 = unpaced
	nextFree sim.Time // earliest instant the next injection may start
	// lastCut is when the gap last widened. Backoff applies only to marks
	// echoed by requests issued after the last cut: a drain of old backlog
	// returns marks reflecting congestion from before the pacer reacted,
	// and compounding the gap on that stale signal overshoots straight to
	// the ceiling (one marked batch fanning out into many sub-op responses
	// likewise must not cut more than once). Initialized to -1 so requests
	// issued at t=0 still register as fresher than "never cut".
	lastCut sim.Time
	// lastDecay anchors the time-based halving of the gap (decayHalflife);
	// advanced lazily in whole halflives so the remainder carries over.
	lastDecay sim.Time
}

// decayTo applies the time-based gap decay up to now: the gap halves once
// per elapsed decayHalflife since the last backoff (or the last applied
// halving). Integer halving keeps the schedule exact and deterministic.
func (pc *pacer) decayTo(now sim.Time) {
	if pc.gap == 0 {
		pc.lastDecay = now
		return
	}
	n := (now - pc.lastDecay) / decayHalflife
	if n <= 0 {
		return
	}
	if n >= 63 {
		pc.gap = 0
	} else {
		pc.gap >>= uint(n)
	}
	pc.lastDecay += n * decayHalflife
}

// Degradation-ladder rungs, in escalation order. rungOf positions a pacer
// gap on the ladder; the rung is diagnostic (trace instants) — the hot paths
// compare the gap against the thresholds directly.
const (
	rungClear    = iota // gap == 0: no protection active
	rungPace            // 0 < gap < coalesceAt: AIMD pacing only
	rungCoalesce        // coalesceAt <= gap < shedAt: pacing + 4x aggregation
	rungShed            // gap >= shedAt: pacing + coalescing + class shedding
)

// rungOf maps a pacer gap to its degradation-ladder rung.
func rungOf(gap sim.Time) int {
	switch {
	case gap >= shedAt:
		return rungShed
	case gap >= coalesceAt:
		return rungCoalesce
	case gap > 0:
		return rungPace
	}
	return rungClear
}

// pacerFor returns this node's pacer toward destination node dst, creating
// it on first use. A fresh pacer starts at PaceFloor rather than zero —
// pacing's inverse of TCP slow start. The control loop is reactive (it
// cannot widen a gap until the first marked response returns, one full round
// trip after the damage is done), so an unknown destination gets the benefit
// of the doubt at the floor: an incast flood arrives pre-spread instead of
// slamming the port in the first RTT, while clean responses decay the floor
// away within a handful of acks on healthy paths.
func (ns *nodeState) pacerFor(dst int, now sim.Time) *pacer {
	pc := ns.pacers[dst]
	if pc == nil {
		pc = &pacer{gap: ns.rt.cfg.Overload.PaceFloor, lastCut: -1, lastDecay: now}
		// Start mid-schedule: origin i's first injection slot toward a
		// fresh destination is offset by i/n of the starting gap. A
		// coordinated cold start — the incast worst case is every origin
		// firing its first op in the same instant — then arrives already
		// interleaved at the aggregate paced rate instead of as an
		// n-source salvo that a hot port's stream penalty amplifies into a
		// standing backlog before any feedback exists. The offset is at
		// most one floor gap and deterministic in the origin's node id.
		if pc.gap > 0 {
			pc.nextFree = now + ns.phase(pc.gap)
		}
		ns.pacers[dst] = pc
	}
	pc.decayTo(now)
	// A decayed gap takes effect immediately: an injection slot reserved
	// under a wider gap would otherwise keep the origin silent long after
	// the backoff has relaxed.
	if max := now + pc.gap; pc.nextFree > max {
		pc.nextFree = max
	}
	return pc
}

// phase is this node's deterministic fraction of a gap interval, used to
// spread coordinated events (cold starts, backoffs) across the origin
// population. Congestion cuts every origin's pacer on the same marked epoch;
// without a per-origin phase they would all fall silent and then re-fire in
// the same instant, a synchronized herd that re-congests the port once per
// gap, defeating the backoff it just applied.
func (ns *nodeState) phase(gap sim.Time) sim.Time {
	return gap * sim.Time(ns.id) / sim.Time(len(ns.rt.nodes))
}

// onAck folds one end-to-end response from peer into this origin node's
// pacer: a CE-marked response (the request or the response crossed a
// congested port) opens the gap to PaceFloor or widens it by paceBackoff up
// to paceCeil — or jumps straight to paceCeil when the response's round trip
// exceeded slamRTT, the signature of a standing backlog that gradual
// doubling would chase one queue-delayed round trip at a time. A clean
// response decays the gap toward zero. issuedAt is the acked request's issue
// instant — marks from requests issued before the last cut carry
// pre-backoff congestion and are accounted but never compound the gap. Runs
// in the origin node's owner context (response delivery). No-op unless
// overload protection is armed.
func (ns *nodeState) onAck(peer int, ce bool, issuedAt sim.Time) {
	rt := ns.rt
	if !rt.overloadArmed {
		return
	}
	now := rt.eng.NowOn(ns.id)
	pc := ns.pacerFor(peer, now)
	before := pc.gap
	if ce {
		st := rt.st(ns.id)
		st.CEAcks++
		delay := now - issuedAt
		cut := sim.Time(-1)
		switch {
		// A slam re-fires as long as the echo's flight mostly postdates
		// the last cut (its midpoint is past lastCut): a marked response
		// that spent most of its life after the backoff is evidence the
		// backlog is still standing, not a leftover of the pre-cut flood —
		// without this, one premature decay lets traffic refill a port
		// whose reservation tail is still minutes of serialization deep.
		case delay > slamRTT && issuedAt+delay/2 > pc.lastCut && pc.gap < paceCeil:
			st.PaceSlams++
			cut = paceCeil
		case pc.gap == 0:
			st.PaceBackoffs++
			cut = rt.cfg.Overload.PaceFloor
		case issuedAt > pc.lastCut:
			st.PaceBackoffs++
			cut = min(sim.Time(float64(pc.gap)*paceBackoff), paceCeil)
		}
		if cut >= 0 {
			pc.gap = cut
			pc.lastCut = now
			pc.lastDecay = now
			// Desynchronize the herd: every origin's pacer is cut by the
			// same congestion epoch, so the post-backoff probes are phased
			// per origin instead of refilling the port in one instant.
			if nf := now + ns.phase(pc.gap); nf > pc.nextFree {
				pc.nextFree = nf
			}
		} else {
			// Even a stale mark is congestion evidence: hold the gap
			// against time-based decay while marked echoes keep arriving,
			// so recovery starts when the marks stop, not on a timer that
			// may undercut a long drain.
			pc.lastDecay = now
		}
	} else if pc.gap > 0 {
		// Clean response: shrink the gap additively, the counterpart of
		// TCP's one-segment-per-RTT probe. Proportional shrinking here
		// would raise the injection rate multiplicatively per ack and
		// overshoot straight back past the marking point every cycle; deep
		// gaps recover through the time-based halving instead (decayTo).
		pc.gap = max(pc.gap-paceDecay, 0)
	}
	if rungOf(before) != rungOf(pc.gap) {
		rt.notePace(ns.id, peer, before, pc.gap)
	}
}

// pace delays the issuing rank until the destination pacer's injection
// window opens, then charges the current gap forward. Runs on the rank's own
// simulated process; the wait is accounted in Stats.PaceWaits/PaceWaited.
func (r *Rank) pace(targetNode int) {
	now := r.proc.Now()
	pc := r.rt.nodes[r.node].pacerFor(targetNode, now)
	if pc.gap == 0 && pc.nextFree == 0 {
		return
	}
	if wait := pc.nextFree - now; wait > 0 {
		st := r.rt.st(r.node)
		st.PaceWaits++
		st.PaceWaited += wait
		r.proc.Sleep(wait)
		now += wait
	}
	if pc.gap > 0 {
		pc.nextFree = now + pc.gap
	} else {
		pc.nextFree = 0
	}
}

// admit runs overload admission control for one operation about to enter
// submit. It either admits the op — pacing its injection first — and returns
// true, or sheds it (the handle completes with *OverloadError, and the shed
// ledger accounts for it) and returns false, in which case the caller must
// not inject any chunk. Checks run deadline first, then budget, then class:
// an op that cannot possibly meet its deadline is rejected before it burns a
// budget slot. Lock/Unlock never pass through here (see OverloadConfig).
func (r *Rank) admit(reqs []*request, h *Handle) bool {
	rt := r.rt
	targetNode := reqs[0].target / rt.cfg.PPN
	pc := rt.nodes[r.node].pacerFor(targetNode, r.proc.Now())

	// Deadline-aware shedding: the pacing delay this op would absorb plus
	// the floor of one network round trip must fit its deadline budget.
	if r.opDeadline > 0 {
		delay := pc.nextFree - r.proc.Now()
		if delay < 0 {
			delay = 0
		}
		minRTT := 2 * (rt.cfg.Fabric.SoftwareOverhead + rt.cfg.Fabric.HopLatency)
		if delay+minRTT > r.opDeadline {
			r.shed(reqs, h, "deadline", pc.gap)
			return false
		}
	}

	// Bounded pending-op budget: prune handles that have since completed,
	// then refuse to grow the pending set past the budget. The pending set
	// is the rank's Nb* handles plus the pooled ones it holds.
	live := r.outstanding[:0]
	for _, o := range r.outstanding {
		if !o.Done() {
			live = append(live, o)
		}
	}
	for i := len(live); i < len(r.outstanding); i++ {
		r.outstanding[i] = nil
	}
	r.outstanding = live
	pending := len(live)
	for o := r.scratch().held; o != nil; o = o.next {
		if !o.Done() {
			pending++
		}
	}
	if pending >= rt.cfg.Overload.Budget {
		r.shed(reqs, h, "budget", pc.gap)
		return false
	}

	// Ladder top rung: deprioritized classes are shed outright while the
	// destination's gap sits at or above shedAt.
	if pc.gap >= shedAt && r.opClass > 0 {
		r.shed(reqs, h, "class", pc.gap)
		return false
	}

	rt.st(r.node).Admitted++
	r.pace(targetNode)
	return true
}

// shed rejects an operation at admission: the shed ledger is charged and the
// handle completes — after the usual local notice latency, so callers never
// observe a handle both issued and failed in the same instant — with a
// *OverloadError carrying the pacer's current gap as the retry hint. Sheds
// are deliberate rejections, not network failures: Stats.Failures is not
// charged.
func (r *Rank) shed(reqs []*request, h *Handle, reason string, gap sim.Time) {
	rt := r.rt
	st := rt.st(r.node)
	st.ShedOps++
	switch reason {
	case "budget":
		st.ShedBudget++
	case "deadline":
		st.ShedDeadline++
	case "class":
		st.ShedClass++
	}
	retry := gap
	if retry <= 0 {
		retry = rt.cfg.Overload.PaceFloor
	}
	err := &OverloadError{Origin: r.rank, Target: reqs[0].target, Reason: reason, RetryAfter: retry}
	rt.noteShed(reason, r, reqs[0].target)
	rt.eng.AfterOn(r.node, rt.cfg.LocalLatency, func() { h.failAll(err) })
}

// effMaxOps returns the aggregation batch bound in effect for traffic from
// node toward targetNode: aggMaxOps, quadrupled at the ladder's
// coalesce rung so a congested destination drains its backlog in fewer,
// larger packets. The BufSize wire bound still applies unchanged, so merged
// packets always fit one request buffer downstream.
func (rt *Runtime) effMaxOps(node, targetNode int) int {
	if !rt.overloadArmed {
		return aggMaxOps
	}
	if pc := rt.nodes[node].pacers[targetNode]; pc != nil && pc.gap >= coalesceAt {
		return 4 * aggMaxOps
	}
	return aggMaxOps
}

// SetOpClass sets the priority class stamped on operations this rank issues
// from now on. Class 0 (the default) is never shed by the ladder's class
// rung; higher values mark lower-priority traffic, shed first when a
// destination's pacer reaches shedAt. The class is origin-local — it never
// travels on the wire — and is ignored when overload protection is off.
func (r *Rank) SetOpClass(class int) { r.opClass = class }

// SetOpDeadline sets a virtual-time completion budget for operations this
// rank issues from now on: an op whose pacing delay plus the minimum network
// round trip would already exceed d is shed with reason "deadline" instead
// of being injected hopelessly late. Zero (the default) disables deadline
// checking. Ignored when overload protection is off.
func (r *Rank) SetOpDeadline(d sim.Time) { r.opDeadline = d }

// notePace emits a Chrome-trace instant for a degradation-ladder rung
// change on one origin->destination pacer.
func (rt *Runtime) notePace(node, peer int, before, after sim.Time) {
	o := rt.obs
	if o == nil || o.tr == nil {
		return
	}
	o.tr.Instant(fmt.Sprintf("pace node%d->node%d", node, peer),
		"overload", o.pid, node, rt.eng.NowOn(node), map[string]any{
			"gap_before_us": before.Micros(), "gap_after_us": after.Micros(),
			"rung": rungOf(after),
		})
}

// noteShed emits a Chrome-trace instant for one shed operation.
func (rt *Runtime) noteShed(reason string, r *Rank, target int) {
	o := rt.obs
	if o == nil || o.tr == nil {
		return
	}
	o.tr.Instant(fmt.Sprintf("shed %s rank%d->rank%d", reason, r.rank, target),
		"overload", o.pid, r.node, rt.eng.NowOn(r.node), nil)
}
