package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Notify/WaitNotify implement ARMCI's notify-wait producer-consumer
// synchronization: after completing its puts, a producer notifies the
// consumer, which blocks until the notification count from that producer
// reaches a threshold. Notifications are small direct messages (they bypass
// request buffers, like responses), and counts are cumulative per
// (consumer, producer) pair.

type notifyKey struct {
	to, from int
	tag      string
}

type notifyState struct {
	count   map[notifyKey]int64
	waiters map[notifyKey]*notifyWaiter
}

type notifyWaiter struct {
	threshold int64
	ev        *sim.Event
}

// notify returns the node's notify-wait state (allocated lazily). State
// lives on the *consumer's* node: deliveries arrive in that node's owner
// context and waiters are that node's own ranks, so all access is
// owner-local.
func (ns *nodeState) notify() *notifyState {
	if ns.notifies == nil {
		ns.notifies = &notifyState{
			count:   map[notifyKey]int64{},
			waiters: map[notifyKey]*notifyWaiter{},
		}
	}
	return ns.notifies
}

// Notify sends a notification to dst. It must follow the puts it announces;
// because blocking puts complete remotely before returning, data-then-notify
// ordering holds.
func (r *Rank) Notify(dst int) { r.NotifyTag(dst, "") }

// NotifyTag is Notify on an independent channel: counts are cumulative per
// (consumer, producer, tag) triple, so libraries (e.g. the collectives) can
// synchronize without disturbing application notification counts.
func (r *Rank) NotifyTag(dst int, tag string) {
	rt := r.rt
	if dst < 0 || dst >= len(rt.ranks) {
		panic(fmt.Sprintf("armci: Notify(%d) out of range", dst))
	}
	rt.st(r.node).Ops++
	dstNode := rt.ranks[dst].node
	dn := &rt.nodes[dstNode]
	key := notifyKey{to: dst, from: r.rank, tag: tag}
	if dstNode == r.node {
		rt.st(r.node).LocalOps++
		rt.eng.AfterOn(dstNode, rt.cfg.LocalLatency, func() { dn.notifyArrive(key) })
		return
	}
	rt.net.SendArg(r.node, dstNode, respBytes, func(any, bool) { dn.notifyArrive(key) }, nil)
}

// notifyArrive counts one notification at its consumer's node. It runs in
// that node's owner context (the fabric's delivery event or the pinned
// same-node event), which is where the consumer's notify state lives.
func (ns *nodeState) notifyArrive(key notifyKey) {
	st := ns.notify()
	st.count[key]++
	if w := st.waiters[key]; w != nil && st.count[key] >= w.threshold {
		delete(st.waiters, key)
		w.ev.Fire()
	}
}

// WaitNotify blocks until the cumulative number of notifications received
// from src reaches count.
func (r *Rank) WaitNotify(src int, count int64) { r.WaitNotifyTag(src, "", count) }

// WaitNotifyTag is WaitNotify on the named channel.
func (r *Rank) WaitNotifyTag(src int, tag string, count int64) {
	rt := r.rt
	if src < 0 || src >= len(rt.ranks) {
		panic(fmt.Sprintf("armci: WaitNotify(%d) out of range", src))
	}
	ns := rt.nodes[r.node].notify()
	key := notifyKey{to: r.rank, from: src, tag: tag}
	if ns.count[key] >= count {
		return
	}
	if ns.waiters[key] != nil {
		panic(fmt.Sprintf("armci: rank %d has two concurrent WaitNotify on src %d tag %q", r.rank, src, tag))
	}
	w := &notifyWaiter{
		threshold: count,
		ev:        sim.NewEvent(rt.eng, fmt.Sprintf("notify %d<-%d %q", r.rank, src, tag)),
	}
	ns.waiters[key] = w
	w.ev.Wait(r.proc)
}

// Notifications returns the cumulative untagged notification count received
// by rank `to` from rank `from` (for tests and diagnostics).
func (rt *Runtime) Notifications(to, from int) int64 {
	return rt.nodes[rt.ranks[to].node].notify().count[notifyKey{to: to, from: from}]
}
