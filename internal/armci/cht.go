package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// enqueue delivers a request into this node's CHT inbox (engine or process
// context), maintaining the per-upstream-peer pending counts that drive the
// poll-cost model.
func (ns *nodeState) enqueue(req *request) {
	if req.prevNode >= 0 {
		// Every arriving request is proof of life from its upstream peer
		// (no-op unless healing is armed).
		ns.heard(req.prevNode)
		// prevNode is always a direct neighbor (requests only arrive over
		// edges), so the sorted-neighbor index is its per-edge slot.
		i := ns.nbrIdx(req.prevNode)
		if ns.pendingBySrc[i]++; ns.pendingBySrc[i] == 1 {
			ns.pendingSrcs++
		}
		// Adaptive credit management triggers at the receiver: an in-edge
		// whose every buffer is now occupied is saturated, so try to shift
		// a buffer toward it from the coldest in-edge (credits.go).
		if ns.rt.cfg.Adaptive.Enabled && int(ns.pendingBySrc[i]) >= ns.inCap[i] {
			ns.maybeShift(req.prevNode)
		}
	}
	ns.inbox.Put(req)
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
	targetNode := req.target / rt.cfg.PPN
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
		svc += sim.Time(len(req.subs)-1) * aggOpOverhead
	}
	return svc
}

// serve completes req once its service time has elapsed: forward it toward
// its target node, or apply it here.
func (ns *nodeState) serve(req *request) {
	rt := ns.rt
	targetNode := req.target / rt.cfg.PPN
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
		// parking on a credit), finish(req, prev) frees its buffer here.
		eg.submitForward(req, ns, req.prevNode)
		return
	}
	if req.kind == opBatch {
		// Unpack at the target: sub-ops apply back-to-back in rid
		// (issue) order — atomically in virtual time, since the CHT
		// is serial — with dedup per sub. The whole batch occupied
		// one buffer, so one finish returns one credit. A CE mark on
		// the batch packet marks every sub: they all crossed the
		// congested port together.
		for _, sub := range req.subs {
			if req.ce {
				sub.ce = true
			}
			ns.deliver(sub)
		}
	} else {
		ns.deliver(req)
	}
	ns.finish(req, req.prevNode)
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
			ns.respond(req, nil, rec.old)
		}
	}
}

// fail reports a request that cannot make progress back to its origin: the
// chunk is failed on its handle (unblocking the waiter with a non-nil
// Handle.Err) and the buffer credit is returned as usual.
func (ns *nodeState) fail(req *request, err error) {
	ns.failSubs(req, err)
	ns.finish(req, req.prevNode)
}

// failSubs routes a failure notice back to the origin of every sub-operation
// of req. A failed batch fails every sub on its own handle (batches carry no
// handle themselves). Notices travel as messages — never synchronous handle
// mutation — because the handle lives in the origin node's owner context,
// which may be another shard.
func (ns *nodeState) failSubs(req *request, err error) {
	rt := ns.rt
	for _, sub := range batchSubs(req) {
		rt.st(ns.id).Failures++
		h, chunk := sub.h, sub.chunk
		if h == nil {
			continue
		}
		origin := sub.originNode
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

// finish releases the request buffer this CHT held: bookkeeping plus a
// credit-return message to the upstream node.
func (ns *nodeState) finish(req *request, prev int) {
	if prev < 0 {
		return // locally injected (same-node mutex path): no buffer held
	}
	i := ns.nbrIdx(prev)
	if ns.pendingBySrc[i]--; ns.pendingBySrc[i] == 0 {
		ns.pendingSrcs--
	}
	ns.rt.returnCredit(ns.id, prev)
}

// serviceBytes estimates how many payload bytes the CHT touches for req.
func (ns *nodeState) serviceBytes(req *request, targetNode int) int {
	if targetNode != ns.id {
		return req.wire - headerBytes // forwarding copies the buffered payload
	}
	switch req.kind {
	case opPut, opPutV, opAcc, opAccV:
		return len(req.data)
	case opGet:
		return req.getBytes
	case opGetV:
		return segsBytes(req.segs)
	case opBatch:
		n := 0
		for _, sub := range req.subs {
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
	switch req.kind {
	case opPut:
		mem := rt.alloc(req.alloc).slab(req.target)
		copy(mem[req.off:req.off+len(req.data)], req.data)
		ns.respond(req, nil, 0)

	case opPutV:
		mem := rt.alloc(req.alloc).slab(req.target)
		pos := 0
		for _, s := range req.segs {
			copy(mem[s.Off:s.Off+s.Len], req.data[pos:pos+s.Len])
			pos += s.Len
		}
		ns.respond(req, nil, 0)

	case opAcc:
		mem := rt.alloc(req.alloc).slab(req.target)
		for i := 0; i+8 <= len(req.data); i += 8 {
			v := GetFloat64(mem, req.off+i) + req.scale*GetFloat64(req.data, i)
			PutFloat64(mem, req.off+i, v)
		}
		ns.respond(req, nil, 0)

	case opGet:
		// A get's payload rides the response in the record's own buf
		// (a get carries no payload out); completeResp copies it into
		// the handle before the record can be recycled.
		mem := rt.alloc(req.alloc).slab(req.target)
		req.buf = append(rt.growBytes(req.buf, req.getBytes), mem[req.off:req.off+req.getBytes]...)
		ns.respond(req, req.buf, 0)

	case opGetV:
		mem := rt.alloc(req.alloc).slab(req.target)
		req.buf = rt.growBytes(req.buf, segsBytes(req.segs))
		for _, s := range req.segs {
			req.buf = append(req.buf, mem[s.Off:s.Off+s.Len]...)
		}
		ns.respond(req, req.buf, 0)

	case opRmw:
		mem := rt.alloc(req.alloc).slab(req.target)
		old := GetInt64(mem, req.off)
		PutInt64(mem, req.off, old+req.delta)
		ns.respond(req, nil, old)

	case opSwap:
		mem := rt.alloc(req.alloc).slab(req.target)
		old := GetInt64(mem, req.off)
		PutInt64(mem, req.off, req.delta)
		ns.respond(req, nil, old)

	case opAccV:
		mem := rt.alloc(req.alloc).slab(req.target)
		pos := 0
		for _, s := range req.segs {
			for b := 0; b < s.Len; b += 8 {
				v := GetFloat64(mem, s.Off+b) + req.scale*GetFloat64(req.data, pos+b)
				PutFloat64(mem, s.Off+b, v)
			}
			pos += s.Len
		}
		ns.respond(req, nil, 0)

	case opLock:
		m := &rt.mutexes[req.mutex]
		if !m.held {
			m.held = true
			m.owner = req.origin
			ns.respond(req, nil, 0)
		} else {
			m.waiters = append(m.waiters, req) // grant deferred to unlock
		}

	case opUnlock:
		m := &rt.mutexes[req.mutex]
		if !m.held || m.owner != req.origin {
			panic(fmt.Sprintf("armci: rank %d unlocking mutex %d owned by %d (held=%v)",
				req.origin, req.mutex, m.owner, m.held))
		}
		if len(m.waiters) > 0 {
			granted := m.waiters[0]
			m.waiters = m.waiters[1:]
			m.owner = granted.origin
			ns.respond(granted, nil, 0)
		} else {
			m.held = false
			m.owner = -1
		}
		ns.respond(req, nil, 0)

	default:
		panic(fmt.Sprintf("armci: CHT cannot handle %v", req.kind))
	}
}

// respond completes one chunk at the origin: the response parameters ride
// the request record itself (respData/respOld/respFrom) through the pooled
// delivery trampolines (respFn / respLocalFn), and completeResp applies them
// — get payloads copied into the handle's buffer at the chunk's flat offset,
// rmw carrying the old value — with no closure allocated per response.
func (ns *nodeState) respond(req *request, payload []byte, old int64) {
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
	req.respData = payload
	req.respOld = old
	size := respBytes + len(payload)
	if req.originNode == ns.id {
		// Same-node response through shared memory (stays in this node's
		// owner context — the handle belongs to one of this node's ranks).
		rt.eng.AfterOnArg(ns.id, rt.cfg.LocalLatency, rt.respLocalFn, req)
		return
	}
	// At the origin, respFn also credits proof of life and echoes congestion
	// (req.ce or a mark picked up by the response itself) into the pacer.
	req.respFrom = ns.id
	rt.net.SendArg(ns.id, req.originNode, size, rt.respFn, req)
}
