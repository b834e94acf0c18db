package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Adaptive per-edge credit management (Config.Adaptive): every node owns a
// fixed budget of request buffers — poolCap per in-edge of the virtual
// topology — and, when enabled, re-partitions that budget at runtime. A
// saturated in-edge (every buffer occupied the moment another request
// arrives) steals one buffer from the in-edge with the most free buffers,
// by sending the donor a revoke and the hot sender a grant over the fabric.
// The invariant sum(inCap) == degree * poolCap holds at the receiver by
// construction, so the Figure 5 memory model is untouched; a floor of at
// least 1 keeps every edge draining, preserving the LDF deadlock-freedom
// argument.

// Adaptive-credit constants.
const (
	// adaptMinFree is how many free buffers a donor in-edge must have
	// beyond the one it gives up, the hysteresis that keeps two busy edges
	// from thrashing buffers back and forth.
	adaptMinFree = 2
	// adaptCooldown is the minimum virtual time between shifts touching the
	// same in-edge, rate-limiting the control traffic.
	adaptCooldown = 10 * sim.Microsecond
)

// adaptBounds returns the capacity range every in-edge stays within: the
// floor is half the configured pool (at least 1), the ceiling twice the
// pool, bounding how lopsided a node's pools can get.
func (c *Config) adaptBounds() (floor, ceiling int) {
	pool := c.PPN * c.BufsPerProc
	return max(1, pool/2), 2 * pool
}

// maybeShift runs on the receiving node when the hot in-edge saturates. All
// decisions read only this node's state and iterate in-neighbors in sorted
// order, so runs are deterministic.
func (ns *nodeState) maybeShift(hot int) {
	rt := ns.rt
	floor, ceiling := rt.cfg.adaptBounds()
	now := rt.eng.NowOn(ns.id)
	hi := ns.nbrIdx(hot)
	// lastShift entries start at neverShifted, so an edge that has never
	// shifted is always outside the cooldown window.
	if now-ns.lastShift[hi] < adaptCooldown {
		return
	}
	if ns.inCap[hi] >= ceiling {
		return
	}
	donor, di, bestFree := -1, -1, 0
	for i, peer := range ns.nbrs {
		if peer == hot || ns.inCap[i] <= floor {
			continue
		}
		if now-ns.lastShift[i] < adaptCooldown {
			continue
		}
		// The donor keeps adaptMinFree free buffers after giving one up.
		free := ns.inCap[i] - int(ns.pendingBySrc[i])
		if free >= adaptMinFree+1 && free > bestFree {
			donor, di, bestFree = peer, i, free
		}
	}
	if donor < 0 {
		return
	}
	ns.inCap[di]--
	ns.inCap[hi]++
	ns.lastShift[di] = now
	ns.lastShift[hi] = now
	rt.st(ns.id).CreditShifts++
	// Control messages ride the fabric like credit acks: the donor sender
	// shrinks its pool (or swallows the next returning credit), the hot
	// sender grows its pool and drains any parked sends.
	rt.net.Send(ns.id, donor, ackBytes, func() {
		rt.nodes[donor].heard(ns.id)
		rt.egressTo(donor, ns.id).revoke()
	})
	rt.net.Send(ns.id, hot, ackBytes, func() {
		rt.nodes[hot].heard(ns.id)
		rt.egressTo(hot, ns.id).grant()
	})
	if o := rt.obs; o != nil && o.tr != nil {
		o.tr.Instant(fmt.Sprintf("credit shift %d->%d at node %d", donor, hot, ns.id),
			"credit", o.pid, ns.id, now, map[string]any{
				"donor_cap": ns.inCap[di], "hot_cap": ns.inCap[hi],
			})
	}
}

// grant grows this edge's credit pool by one (the peer re-dedicated a buffer
// to us) and drains any sends parked for a credit.
func (eg *egress) grant() {
	eg.capacity++
	eg.credits++
	eg.drain()
}

// revoke shrinks this edge's credit pool by one. With no credit on hand the
// reduction is deferred as debt and the next returning credit is swallowed,
// so capacity is never driven negative by in-flight traffic.
func (eg *egress) revoke() {
	eg.capacity--
	if eg.credits > 0 {
		eg.credits--
	} else {
		eg.revokeDebt++
	}
}
