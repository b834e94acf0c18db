package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Origin-side request timeouts: every chunk a rank injects is watched by a
// virtual-time timer. If the chunk has not completed when the timer fires,
// the origin retransmits a clone along the (possibly rerouted) virtual
// topology path and backs the timer off multiplicatively; after MaxRetries
// the chunk fails with a TimeoutError on its handle. Retransmits carry the
// original's request id, which the target deduplicates (see handleDup), so
// the protocol stays at-most-once-apply under lost requests, lost
// responses, and lost credit acks alike.

// retryBackoff is the multiplicative backoff applied to the request timeout
// after every retransmission.
const retryBackoff = 2.0

// armTimeout assigns req a request id and starts its timeout timer. No-op
// when request timeouts are disabled. It must run in the origin node's owner
// context (it always does: chunks are armed by the issuing rank). The rid is
// the origin node's own counter prefixed with the node id, so ids are
// runtime-unique without any cross-node state. The timer holds the record
// until it stops re-arming (see Runtime.release).
func (rt *Runtime) armTimeout(req *request) {
	if rt.cfg.RequestTimeout <= 0 {
		return
	}
	origin := int(req.originNode)
	ns := rt.node(origin)
	ns.ridSeq++
	req.rid = uint64(origin+1)<<32 | ns.ridSeq
	req.issued = rt.eng.Now()
	req.timeout = rt.cfg.RequestTimeout
	req.holds++
	rt.eng.AfterOnArg(origin, req.timeout, rt.timeoutFn, req)
}

// onTimeout runs when req's timer fires, as an event pinned to the origin
// node, so retries, failure notices and handle completion all stay in the
// origin's owner context. Unless the chunk is done or fails here, it
// retransmits and re-arms with the backed-off timeout; otherwise the timer
// lets go of the record.
func (rt *Runtime) onTimeout(req *request) {
	if rt.retryOrFail(req) {
		req.timeout = sim.Time(float64(req.timeout) * retryBackoff)
		rt.eng.AfterOnArg(int(req.originNode), req.timeout, rt.timeoutFn, req)
		return
	}
	rt.release(req)
}

// retryOrFail decides one timer firing: it returns true after injecting a
// retransmission, false when the chunk has completed or has just failed.
func (rt *Runtime) retryOrFail(req *request) bool {
	origin := int(req.originNode)
	targetNode := int(req.target) / rt.cfg.PPN
	h, chunk := req.h, int(req.chunk)
	if h == nil || h.chunkComplete(chunk) {
		return false // completed (or already failed) — timer expires silently
	}
	rt.st(origin).Timeouts++
	elapsed := rt.eng.Now() - req.issued
	// A target the origin's membership view has confirmed dead (or an
	// origin node that has itself crashed) cannot complete the chunk;
	// fail fast instead of burning the remaining retries.
	if err := rt.deadRouteErr(origin, targetNode); err != nil {
		rt.st(origin).Failures++
		rt.st(origin).NodeAborts++
		rt.noteRetry("node-fail", req, elapsed)
		h.failChunk(chunk, err)
		return false
	}
	if int(req.attempt) >= rt.cfg.MaxRetries {
		rt.st(origin).Failures++
		err := &TimeoutError{
			Kind:     req.kind.String(),
			Origin:   int(req.origin),
			Target:   int(req.target),
			Attempts: int(req.attempt) + 1,
			Elapsed:  elapsed,
		}
		rt.noteRetry("timeout-fail", req, elapsed)
		h.failChunk(chunk, err)
		return false
	}
	req.attempt++
	rt.st(origin).Retries++
	rt.noteRetry("retry", req, elapsed)
	next := rt.nextHop(origin, targetNode)
	eg, err := rt.egressFor(origin, next)
	if err != nil {
		rt.st(origin).NoRoutes++
		rt.st(origin).Failures++
		h.failChunk(chunk, err)
		return false
	}
	// Non-blocking submission: the timer runs in engine context and the
	// issuing rank is typically parked in Wait. Credit starvation here
	// is recovered by the edge's regen machinery, not by blocking.
	eg.submitForward(rt.cloneReq(req), nil, nil)
	return true
}

// cloneReq returns a retransmission of req: a pool record with the same
// operation and its own segs and payload storage, so the in-flight original
// (possibly parked at a failed link or a stalled CHT) and the retry share no
// backing array — either may respond first and be recycled while the other
// is still travelling. The clone's one hold is its response's; the timer
// stays with the original. Like the original, the clone holds the handle.
func (rt *Runtime) cloneReq(req *request) *request {
	c := rt.getReq(int(req.originNode))
	segs, buf := c.segs, c.buf
	*c = *req
	c.segs = append(rt.growSegs(segs, len(req.segs)), req.segs...)
	c.buf = rt.growBytes(buf, len(req.data))
	if req.data != nil {
		c.buf = append(c.buf, req.data...)
		c.data = c.buf
	}
	c.freed, c.holds = false, 1
	if c.h != nil {
		c.h.holds++ // the clone points at the handle too
	}
	return c
}

// noteRetry emits a Chrome-trace instant marker for a retry decision.
func (rt *Runtime) noteRetry(what string, req *request, elapsed sim.Time) {
	o := rt.obs
	if o == nil || o.tr == nil {
		return
	}
	o.tr.Instant(fmt.Sprintf("%s %s rank%d->rank%d", what, req.kind, req.origin, req.target),
		"fault", o.pid, int(req.originNode), rt.eng.Now(), map[string]any{
			"attempt": int(req.attempt), "rid": req.rid, "elapsed_us": elapsed.Micros(),
		})
}
