package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// enqueue delivers a request into this node's CHT inbox (engine or process
// context), maintaining the per-upstream-peer pending counts that drive the
// poll-cost model.
func (ns *nodeState) enqueue(req *request) {
	if up := req.up; up != nil {
		// The edge the request crossed names the upstream peer's slot.
		i := ns.upSlot(up)
		// Every arriving request is proof of life from its upstream peer
		// (no-op unless healing is armed).
		ns.heardAt(i)
		if ns.pendingBySrc[i]++; ns.pendingBySrc[i] == 1 {
			ns.pendingSrcs++
		}
	}
	ns.inbox.Put(req)
}

// upSlot returns the slot of up.from in this node's neighbor list, where up
// is an edge into this node, caching it on the edge at first use. Call it
// from this node's owner context: that is where up.rev is written.
func (ns *nodeState) upSlot(up *egress) int {
	if up.rev < 0 {
		up.rev = int32(ns.nbrIdx(up.from))
	}
	return int(up.rev)
}

// chtStep is the Communication Helper Thread: it serves one request at a
// time on behalf of every process on the node. Handling cost grows with the
// number of distinct upstream peers currently pending (the CHT polls one
// buffer set per connected peer) and with the bytes it moves.
//
// It is a sim step function (the CHT owns no goroutine): each call finishes
// the request whose service time just elapsed, if any, then takes requests
// off the inbox until one starts service or the inbox is empty. The request
// in hand lives in ns.cur across calls; ns.curSvc < 0 marks one dequeued
// under an injected stall whose service has not started.
//
// When the request's target lives elsewhere, the CHT hands it to the
// downstream egress and moves on — it never blocks on buffer credits. A
// stalled forward keeps occupying its upstream buffer (the credit return is
// deferred to transmission), so buffer dependencies follow the LDF route
// order and stay acyclic, while the CHT keeps draining every other buffer
// class. This non-blocking structure is what the paper's deadlock-freedom
// argument quietly requires.
func (ns *nodeState) chtStep(p *sim.Proc) {
	fi := ns.rt.faultInj // nil when fault injection is off; its queries are nil-safe
	req := ns.cur
	if req != nil && ns.curSvc >= 0 {
		ns.cur = nil
		ns.serve(req)
		req = nil
	}
	for req == nil {
		var ok bool
		if req, ok = ns.inbox.Poll(p); !ok {
			return
		}
		// A crashed node's CHT serves nothing: whatever reaches the inbox
		// while the node is down dies with it (no response, no forward, no
		// credit return). The daemon itself keeps draining so traffic after
		// a recovery is served again.
		if fi.NodeDown(ns.id) {
			req = nil
		}
	}
	// An injected CHT stall freezes the helper thread between requests: the
	// inbox keeps filling (buffers are the flow control, not the thread)
	// until the fault repairs. Permanent stalls park the daemon forever;
	// origin-side timeouts recover the traffic.
	if !fi.AwaitRepair(ns.id, p) {
		ns.cur, ns.curSvc = req, -1
		return
	}
	ns.cur, ns.curStart, ns.curSvc = req, p.Now(), ns.serviceTime(req)
	p.Sleep(ns.curSvc)
}

// serviceTime is how long the CHT is busy with req, given the buffers pending
// right now.
func (ns *nodeState) serviceTime(req *request) sim.Time {
	rt := ns.rt
	targetNode := int(req.target) / rt.cfg.PPN
	moved := ns.serviceBytes(req, targetNode)
	srcs := ns.pendingSrcs
	if srcs > rt.cfg.CHTPollCap {
		srcs = rt.cfg.CHTPollCap
	}
	svc := rt.cfg.CHTBaseOverhead +
		sim.Time(srcs)*rt.cfg.CHTPollPerSource +
		sim.Time(float64(moved)*rt.cfg.CHTPerByte)
	if targetNode != ns.id {
		svc += rt.cfg.CHTForwardOverhead
	} else if req.kind == opBatch {
		// Unpacking a batch costs far less per sub-op than a full
		// dequeue-poll-dispatch cycle; that gap is the hot-node win.
		svc += sim.Time(len(*req.subs)-1) * aggOpOverhead
	}
	return svc
}

// serve completes req once its service time has elapsed: forward it toward
// its target node, or apply it here.
func (ns *nodeState) serve(req *request) {
	rt := ns.rt
	targetNode := int(req.target) / rt.cfg.PPN
	if rt.obs != nil {
		rt.obs.noteService(ns.id, req, targetNode != ns.id, ns.curStart, ns.curSvc)
	}
	if targetNode != ns.id {
		// A target this node's membership view has confirmed dead gets
		// failed back to its origin immediately — forwarding it would
		// strand a credit on an edge no ack will ever return over.
		if rt.healArmed && ns.isDead(targetNode) {
			rt.st(ns.id).NodeAborts++
			ns.fail(req, &NodeFailedError{Node: targetNode})
			return
		}
		next := rt.nextHop(ns.id, targetNode)
		eg, err := rt.egressFor(ns.id, next)
		if err != nil {
			rt.st(ns.id).NoRoutes++
			ns.fail(req, err)
			return
		}
		rt.st(ns.id).Forwards++
		// When the request leaves this node (transmission, possibly after
		// parking on a credit), finish(up) frees its buffer here.
		eg.submitForward(req, ns, req.up)
		return
	}
	if req.kind == opBatch {
		// Unpack at the target: sub-ops apply back-to-back in rid
		// (issue) order — atomically in virtual time, since the CHT
		// is serial — with dedup per sub. The whole batch occupied
		// one buffer, so one finish returns one credit. The packet's
		// last edge is every sub's: they all crossed it together.
		for _, sub := range *req.subs {
			sub.up = req.up
			ns.deliver(sub)
		}
	} else {
		ns.deliver(req)
	}
	ns.finish(req.up)
}

// deliver applies one request (or batch sub-operation) at its target node,
// deduplicating retransmissions by request id first.
func (ns *nodeState) deliver(req *request) {
	if ns.rids != nil && req.rid != 0 {
		if rec, ok := ns.rids[req.rid]; ok {
			ns.handleDup(req, rec)
			return
		}
		ns.rids[req.rid] = dupState{}
	}
	ns.handle(req)
}

// handleDup serves a retransmitted request whose original already reached
// this target. Reads re-execute (idempotent, and the original response may
// have been lost with the payload); everything else must not re-apply — if
// the original has responded, only the completion is re-sent (with the
// remembered rmw old value), otherwise the original is still in flight here
// and the duplicate is simply dropped.
func (ns *nodeState) handleDup(req *request, rec dupState) {
	ns.rt.st(ns.id).DupDrops++
	switch req.kind {
	case opGet, opGetV:
		ns.handle(req)
	default:
		if rec.responded {
			ns.respond(req, rec.old)
		}
	}
}

// fail reports a request that cannot make progress back to its origin: the
// chunk is failed on its handle (unblocking the waiter with a non-nil
// Handle.Err) and the buffer credit is returned as usual.
func (ns *nodeState) fail(req *request, err error) {
	ns.failSubs(req, err)
	ns.finish(req.up)
}

// failSubs routes a failure notice back to the origin of every sub-operation
// of req. A failed batch fails every sub on its own handle (batches carry no
// handle themselves). Notices travel as messages — never synchronous handle
// mutation — because the handle lives in the origin node's owner context.
func (ns *nodeState) failSubs(req *request, err error) {
	rt := ns.rt
	for _, sub := range batchSubs(req) {
		rt.st(ns.id).Failures++
		h, chunk := sub.h, int(sub.chunk)
		if h == nil {
			continue
		}
		origin := int(sub.originNode)
		deliver := func() { h.failChunk(chunk, err) }
		if origin == ns.id {
			rt.eng.AfterOn(ns.id, rt.cfg.LocalLatency, deliver)
		} else {
			rt.net.SendArg(ns.id, origin, respBytes, func(any, bool) {
				rt.nodes[origin].heard(ns.id)
				deliver()
			}, nil)
		}
	}
}

// finish releases the request buffer this CHT held for a request that
// arrived over edge up: bookkeeping plus a credit ack back over the same
// edge. The pooled delivery trampoline (ackFn) carries the egress record
// itself, so no per-ack closure is allocated.
func (ns *nodeState) finish(up *egress) {
	if up == nil {
		return // locally injected (same-node mutex path): no buffer held
	}
	i := ns.upSlot(up)
	if ns.pendingBySrc[i]--; ns.pendingBySrc[i] == 0 {
		ns.pendingSrcs--
	}
	rt := ns.rt
	rt.net.SendArg(ns.id, up.from, ackBytes, rt.ackFn, up)
}

// serviceBytes estimates how many payload bytes the CHT touches for req.
func (ns *nodeState) serviceBytes(req *request, targetNode int) int {
	if targetNode != ns.id {
		return int(req.wire) - headerBytes // forwarding copies the buffered payload
	}
	switch req.kind {
	case opPut, opPutV, opAcc, opAccV:
		return len(req.data)
	case opGet:
		return int(req.getBytes)
	case opGetV:
		return segsBytes(req.segs)
	case opBatch:
		n := 0
		for _, sub := range *req.subs {
			n += ns.serviceBytes(sub, targetNode)
		}
		return n
	default:
		return 8
	}
}

// handle applies a request that has reached its target node and issues the
// response directly back to the origin (responses bypass request buffers,
// as in ARMCI).
func (ns *nodeState) handle(req *request) {
	rt := ns.rt
	target := int(req.target)
	switch req.kind {
	case opPut:
		req.alloc.write(target, req.off, req.data)
		ns.respond(req, 0)

	case opPutV:
		pos := 0
		for _, s := range req.segs {
			req.alloc.write(target, s.Off, req.data[pos:pos+s.Len])
			pos += s.Len
		}
		ns.respond(req, 0)

	case opAcc:
		for i := 0; i+8 <= len(req.data); i += 8 {
			req.alloc.accFloat64(target, req.off+i, req.scale(), GetFloat64(req.data, i))
		}
		ns.respond(req, 0)

	case opGet:
		// A get's payload rides the response in the record's own buf
		// (a get carries no payload out); completeResp copies it into
		// the handle before the record can be recycled.
		n := int(req.getBytes)
		req.buf = rt.growBytes(req.buf, n)[:n]
		req.alloc.read(target, req.off, req.buf)
		req.respBuf = true
		ns.respond(req, 0)

	case opGetV:
		n := segsBytes(req.segs)
		req.buf = rt.growBytes(req.buf, n)[:n]
		pos := 0
		for _, s := range req.segs {
			req.alloc.read(target, s.Off, req.buf[pos:pos+s.Len])
			pos += s.Len
		}
		req.respBuf = true
		ns.respond(req, 0)

	case opRmw:
		old := req.alloc.loadInt64(target, req.off)
		req.alloc.storeInt64(target, req.off, old+req.delta())
		ns.respond(req, old)

	case opSwap:
		old := req.alloc.loadInt64(target, req.off)
		req.alloc.storeInt64(target, req.off, req.delta())
		ns.respond(req, old)

	case opAccV:
		pos := 0
		for _, s := range req.segs {
			for b := 0; b < s.Len; b += 8 {
				req.alloc.accFloat64(target, s.Off+b, req.scale(), GetFloat64(req.data, pos+b))
			}
			pos += s.Len
		}
		ns.respond(req, 0)

	case opLock:
		m := &rt.mutexes[req.mutex()]
		if !m.held {
			m.held = true
			m.owner = int(req.origin)
			ns.respond(req, 0)
		} else {
			m.waiters = append(m.waiters, req) // acquired at the owner's unlock
		}

	case opUnlock:
		m := &rt.mutexes[req.mutex()]
		if !m.held || m.owner != int(req.origin) {
			panic(fmt.Sprintf("armci: rank %d unlocking mutex %d owned by %d (held=%v)",
				req.origin, req.mutex(), m.owner, m.held))
		}
		if len(m.waiters) > 0 {
			next := m.waiters[0]
			m.waiters = m.waiters[1:]
			m.owner = int(next.origin)
			ns.respond(next, 0)
		} else {
			m.held = false
			m.owner = -1
		}
		ns.respond(req, 0)

	default:
		panic(fmt.Sprintf("armci: CHT cannot handle %v", req.kind))
	}
}

// respond completes one chunk at the origin: the response parameters ride
// the request record itself (respBuf/respOld) through the pooled delivery
// trampolines (respFn / respLocalFn), and completeResp applies them — a get
// payload (buf, when respBuf is set) copied into the handle's buffer at the
// chunk's flat offset, rmw carrying the old value — with no closure
// allocated per response.
func (ns *nodeState) respond(req *request, old int64) {
	rt := ns.rt
	if ns.rids != nil && req.rid != 0 {
		if rec, ok := ns.rids[req.rid]; ok {
			// Remember that (and what) we answered, so a retransmit whose
			// original response was lost can be re-answered without
			// re-applying the operation.
			rec.responded = true
			rec.old = old
			ns.rids[req.rid] = rec
		}
	}
	req.respOld = old
	size := respBytes
	if req.respBuf {
		size += len(req.buf)
	}
	origin := int(req.originNode)
	if origin == ns.id {
		// Same-node response through shared memory (stays in this node's
		// owner context — the handle belongs to one of this node's ranks).
		rt.eng.AfterOnArg(ns.id, rt.cfg.LocalLatency, rt.respLocalFn, req)
		return
	}
	// At the origin, respFn also credits proof of life.
	rt.net.SendArg(ns.id, origin, size, rt.respFn, req)
}
