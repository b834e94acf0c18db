package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Rank is one application process's view of the runtime: the receiver for
// all one-sided operations. Every method must be called from the rank's own
// body function (they block the rank's simulated process).
//
// Blocking operations (Put, Get, ...) wait for remote completion; Nb*
// variants return a *Handle to overlap communication with computation, and
// Wait/WaitAll/Fence complete them.
type Rank struct {
	rt   *Runtime
	rank int
	node int
	proc *sim.Proc

	outstanding []*Handle
	heldMutexes map[int]bool

	// agg buffers batchable nonblocking requests per target node when
	// Config.Agg is enabled; see agg.go for the flush boundaries.
	agg map[int][]*request

	// collective-layer state (see collectives.go)
	collSent map[int]int64
	collRecv map[int]int64

	// reqScratch is the rank's reusable chunk list: the Nb* methods collect
	// a fresh operation's request records here before submit. submit (and
	// the aggregation layer underneath) only iterates the slice, so one
	// backing array per rank serves every operation.
	reqScratch []*request
	// segScratch is the rank's reusable segment group for chunkSegs.
	segScratch []Seg

	// Overload-protection stamps applied to subsequently issued operations
	// (SetOpClass / SetOpDeadline in overload.go); consulted only at
	// admission, never carried on the wire.
	opClass    int
	opDeadline sim.Time
}

// Rank returns the process's global rank in [0, N).
func (r *Rank) Rank() int { return r.rank }

// Node returns the compute node hosting this rank.
func (r *Rank) Node() int { return r.node }

// N returns the total number of ranks.
func (r *Rank) N() int { return len(r.rt.ranks) }

// Runtime returns the owning runtime.
func (r *Rank) Runtime() *Runtime { return r.rt }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Sleep models local computation for d of virtual time.
func (r *Rank) Sleep(d sim.Time) { r.proc.Sleep(d) }

// Proc exposes the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Local returns this rank's own slice of the named allocation.
func (r *Rank) Local(alloc string) []byte { return r.rt.Memory(r.rank, alloc) }

// Malloc collectively registers an allocation (idempotent) and synchronizes,
// mirroring ARMCI_Malloc's collective contract.
func (r *Rank) Malloc(alloc string, bytes int) {
	r.rt.Alloc(alloc, bytes)
	r.Barrier()
}

func (r *Rank) nodeOf(rank int) int {
	if rank < 0 || rank >= len(r.rt.ranks) {
		panic(fmt.Sprintf("armci: rank %d out of range [0,%d)", rank, len(r.rt.ranks)))
	}
	return rank / r.rt.cfg.PPN
}

// track registers a handle for Fence accounting and returns it.
func (r *Rank) track(h *Handle) *Handle {
	r.outstanding = append(r.outstanding, h)
	return h
}

// Wait blocks until h completes. With aggregation enabled it first flushes
// the rank's aggregation buffers — h may be riding in one.
func (r *Rank) Wait(h *Handle) {
	r.flushAllAgg()
	h.done.Wait(r.proc)
}

// WaitAll completes every given handle.
func (r *Rank) WaitAll(hs ...*Handle) {
	for _, h := range hs {
		r.Wait(h)
	}
}

// Fence blocks until every operation this rank has issued so far is
// remotely complete (ARMCI_AllFence restricted to the caller).
func (r *Rank) Fence() {
	for _, h := range r.outstanding {
		r.Wait(h)
	}
	r.outstanding = r.outstanding[:0]
}

// send injects one request chunk toward the target node through the virtual
// topology; the rank blocks until a first-hop buffer credit is available
// (ARMCI's sender-side flow control).
func (r *Rank) send(req *request) {
	rt := r.rt
	targetNode := req.target / rt.cfg.PPN
	// Crash-stop fast path: a crashed origin cannot inject, and a target
	// this node's membership view has confirmed dead is not worth the full
	// retry schedule. Both fail the chunk with *NodeFailedError.
	if err := rt.deadRouteErr(r.node, targetNode); err != nil {
		rt.abortChunks(err, req)
		return
	}
	// Anything still aggregating for this target must go first, or a
	// buffered earlier write could be applied after this request.
	r.flushAgg(targetNode)
	rt.armTimeout(req)
	first := rt.nextHop(r.node, targetNode)
	rt.egressTo(r.node, first).submitRank(r.proc, req)
}

// localDelay models a shared-memory operation touching n payload bytes.
func (r *Rank) localDelay(n int) {
	r.proc.Sleep(r.rt.cfg.LocalLatency + sim.Time(float64(n)*r.rt.cfg.LocalPerByte))
}

// ---------- Contiguous put/get ----------

// NbPut starts a one-sided put of data into dst's allocation at byte offset
// off.
func (r *Rank) NbPut(dst int, alloc string, off int, data []byte) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, len(data))
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(len(data))
		copy(a.slab(dst)[off:], data)
		return newHandle(rt.eng, 0, 0)
	}
	reqs := r.reqScratch[:0]
	rt.cfg.chunkContig(off, len(data), func(o, ln int) {
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opPut, r.rank, r.node, dst
		req.alloc, req.off = alloc, o
		req.data = data[o-off : o-off+ln]
		req.wire = headerBytes + ln
		reqs = append(reqs, req)
	})
	r.reqScratch = reqs[:0]
	h := newHandle(rt.eng, len(reqs), 0)
	r.submit(reqs, h)
	return r.track(h)
}

// Put is the blocking form of NbPut.
func (r *Rank) Put(dst int, alloc string, off int, data []byte) {
	r.Wait(r.NbPut(dst, alloc, off, data))
}

// NbGet starts a one-sided get of n bytes from src's allocation at off.
func (r *Rank) NbGet(src int, alloc string, off, n int) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, n)
	if r.nodeOf(src) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(n)
		h := newHandle(rt.eng, 0, n)
		copy(h.data, a.slab(src)[off:off+n])
		return h
	}
	reqs := r.reqScratch[:0]
	rt.cfg.chunkContig(off, n, func(o, ln int) {
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opGet, r.rank, r.node, src
		req.alloc, req.off = alloc, o
		req.getBytes, req.flatOff = ln, o-off
		req.wire = headerBytes
		reqs = append(reqs, req)
	})
	r.reqScratch = reqs[:0]
	h := newHandle(rt.eng, len(reqs), n)
	r.submit(reqs, h)
	return r.track(h)
}

// Get is the blocking form of NbGet; it returns the fetched bytes.
func (r *Rank) Get(src int, alloc string, off, n int) []byte {
	h := r.NbGet(src, alloc, off, n)
	r.Wait(h)
	return h.Data()
}

// ---------- Accumulate ----------

// NbAcc starts an atomic accumulate: dst_mem[off+8i] += scale * vals[i] for
// float64 elements.
func (r *Rank) NbAcc(dst int, alloc string, off int, scale float64, vals []float64) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	n := 8 * len(vals)
	checkRange(a, off, n)
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(n)
		mem := a.slab(dst)
		for i := range vals {
			PutFloat64(mem, off+8*i, GetFloat64(mem, off+8*i)+scale*vals[i])
		}
		return newHandle(rt.eng, 0, 0)
	}
	reqs := r.reqScratch[:0]
	// Chunk on 8-byte boundaries so no float64 straddles two chunks; each
	// chunk's payload is encoded into the record's own buffer.
	per := rt.cfg.payloadPerChunk(0) &^ 7
	for done := 0; done < n; done += per {
		ln := n - done
		if ln > per {
			ln = per
		}
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opAcc, r.rank, r.node, dst
		req.alloc, req.off = alloc, off+done
		req.buf = appendFloat64s(req.buf[:0], vals[done/8:(done+ln)/8])
		req.data, req.scale = req.buf, scale
		req.wire = headerBytes + ln
		reqs = append(reqs, req)
	}
	r.reqScratch = reqs[:0]
	if len(reqs) == 0 {
		return newHandle(rt.eng, 0, 0)
	}
	h := newHandle(rt.eng, len(reqs), 0)
	r.submit(reqs, h)
	return r.track(h)
}

// Acc is the blocking form of NbAcc.
func (r *Rank) Acc(dst int, alloc string, off int, scale float64, vals []float64) {
	r.Wait(r.NbAcc(dst, alloc, off, scale, vals))
}

// ---------- Vectored (noncontiguous) put/get ----------

// NbPutV starts a vectored put: data is scattered into dst's allocation
// according to segs (data length must equal the summed segment length).
func (r *Rank) NbPutV(dst int, alloc string, segs []Seg, data []byte) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	total := segsBytes(segs)
	if total != len(data) {
		panic(fmt.Sprintf("armci: PutV data length %d != segments total %d", len(data), total))
	}
	for _, s := range segs {
		checkRange(a, s.Off, s.Len)
	}
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(total)
		mem := a.slab(dst)
		pos := 0
		for _, s := range segs {
			copy(mem[s.Off:s.Off+s.Len], data[pos:pos+s.Len])
			pos += s.Len
		}
		return newHandle(rt.eng, 0, 0)
	}
	reqs := r.reqScratch[:0]
	rt.cfg.chunkSegs(segs, 1, &r.segScratch, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opPutV, r.rank, r.node, dst
		req.alloc = alloc
		req.segs = append(req.segs[:0], group...) // chunker reuses group: copy
		req.data = data[flatOff : flatOff+payload]
		req.wire = headerBytes + len(group)*segDescBytes + payload
		reqs = append(reqs, req)
	})
	r.reqScratch = reqs[:0]
	h := newHandle(rt.eng, len(reqs), 0)
	r.submit(reqs, h)
	return r.track(h)
}

// PutV is the blocking form of NbPutV.
func (r *Rank) PutV(dst int, alloc string, segs []Seg, data []byte) {
	r.Wait(r.NbPutV(dst, alloc, segs, data))
}

// NbGetV starts a vectored get; the completed handle's Data gathers the
// segments in order.
func (r *Rank) NbGetV(src int, alloc string, segs []Seg) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	total := segsBytes(segs)
	for _, s := range segs {
		checkRange(a, s.Off, s.Len)
	}
	if r.nodeOf(src) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(total)
		h := newHandle(rt.eng, 0, total)
		mem := a.slab(src)
		pos := 0
		for _, s := range segs {
			copy(h.data[pos:pos+s.Len], mem[s.Off:s.Off+s.Len])
			pos += s.Len
		}
		return h
	}
	reqs := r.reqScratch[:0]
	rt.cfg.chunkSegs(segs, 1, &r.segScratch, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opGetV, r.rank, r.node, src
		req.alloc = alloc
		req.segs = append(req.segs[:0], group...) // chunker reuses group: copy
		req.flatOff = flatOff
		req.wire = headerBytes + len(group)*segDescBytes
		reqs = append(reqs, req)
	})
	r.reqScratch = reqs[:0]
	h := newHandle(rt.eng, len(reqs), total)
	r.submit(reqs, h)
	return r.track(h)
}

// GetV is the blocking form of NbGetV.
func (r *Rank) GetV(src int, alloc string, segs []Seg) []byte {
	h := r.NbGetV(src, alloc, segs)
	r.Wait(h)
	return h.Data()
}

// ---------- Strided put/get (lowered onto the vector path) ----------

// PutS performs a blocking strided put: count blocks of blockLen bytes,
// stride bytes apart in the target allocation, starting at off.
func (r *Rank) PutS(dst int, alloc string, off, blockLen, stride, count int, data []byte) {
	r.PutV(dst, alloc, StridedSegs(off, blockLen, stride, count), data)
}

// NbPutS is the non-blocking form of PutS.
func (r *Rank) NbPutS(dst int, alloc string, off, blockLen, stride, count int, data []byte) *Handle {
	return r.NbPutV(dst, alloc, StridedSegs(off, blockLen, stride, count), data)
}

// GetS performs a blocking strided get.
func (r *Rank) GetS(src int, alloc string, off, blockLen, stride, count int) []byte {
	return r.GetV(src, alloc, StridedSegs(off, blockLen, stride, count))
}

// NbGetS is the non-blocking form of GetS.
func (r *Rank) NbGetS(src int, alloc string, off, blockLen, stride, count int) *Handle {
	return r.NbGetV(src, alloc, StridedSegs(off, blockLen, stride, count))
}

// ---------- Atomics ----------

// NbFetchAdd starts an atomic fetch-and-add of delta to the int64 at dst's
// allocation offset off; the completed handle's Old() is the previous value.
// Nonblocking atomics pipeline (and, with aggregation, batch) the hot-spot
// counter traffic of Figure 7.
func (r *Rank) NbFetchAdd(dst int, alloc string, off int, delta int64) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, 8)
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(8)
		mem := a.slab(dst)
		old := GetInt64(mem, off)
		PutInt64(mem, off, old+delta)
		h := newHandle(rt.eng, 0, 0)
		h.old = old
		return h
	}
	req := rt.getReq(r.node)
	req.kind, req.origin, req.originNode, req.target = opRmw, r.rank, r.node, dst
	req.alloc, req.off, req.delta = alloc, off, delta
	req.wire = headerBytes + 8
	reqs := append(r.reqScratch[:0], req)
	r.reqScratch = reqs[:0]
	h := newHandle(rt.eng, 1, 0)
	r.submit(reqs, h)
	return r.track(h)
}

// FetchAdd atomically adds delta to the int64 at dst's allocation offset off
// and returns the previous value (ARMCI_Rmw fetch-and-add).
func (r *Rank) FetchAdd(dst int, alloc string, off int, delta int64) int64 {
	h := r.NbFetchAdd(dst, alloc, off, delta)
	r.Wait(h)
	return h.Old()
}

// ---------- Mutexes ----------

// Lock acquires global mutex m (blocking, FIFO-fair). Mutexes are
// distributed round-robin across nodes and managed by the owner's CHT.
func (r *Rank) Lock(m int) { r.lockOp(m, opLock) }

// Unlock releases global mutex m; the caller must hold it.
func (r *Rank) Unlock(m int) { r.lockOp(m, opUnlock) }

func (r *Rank) lockOp(m int, kind opKind) {
	rt := r.rt
	if m < 0 || m >= len(rt.mutexes) {
		panic(fmt.Sprintf("armci: mutex %d out of range [0,%d)", m, len(rt.mutexes)))
	}
	if r.heldMutexes == nil {
		r.heldMutexes = map[int]bool{}
	}
	switch kind {
	case opLock:
		if r.heldMutexes[m] {
			panic(fmt.Sprintf("armci: rank %d re-locking mutex %d it already holds", r.rank, m))
		}
	case opUnlock:
		if !r.heldMutexes[m] {
			panic(fmt.Sprintf("armci: rank %d unlocking mutex %d it does not hold", r.rank, m))
		}
	}
	rt.st(r.node).Ops++
	ownerNode := m % rt.cfg.Nodes
	ownerRank := ownerNode * rt.cfg.PPN
	req := rt.getReq(r.node)
	req.kind, req.origin, req.originNode, req.target = kind, r.rank, r.node, ownerRank
	req.mutex, req.wire = m, headerBytes
	h := newHandle(rt.eng, 1, 0)
	req.h = h
	// Crash-stop fast path, as in send. A mutex whose owner node crashed
	// while a rank held it stays wedged for other contenders — lock state is
	// volatile and dies with the owner (a documented limitation) — but a
	// lock op issued toward a confirmed-dead owner fails fast here.
	if err := rt.deadRouteErr(r.node, ownerNode); err != nil {
		rt.abortChunks(err, req)
		r.Wait(h)
		return
	}
	if ownerNode == r.node {
		// Same-node mutex traffic still goes through the owner CHT (the
		// authority for the mutex) but over shared memory: no credits.
		rt.st(r.node).LocalOps++
		req.prevNode = -1
		node := &rt.nodes[ownerNode]
		rt.eng.AfterOn(ownerNode, rt.cfg.LocalLatency, func() { node.enqueue(req) })
	} else {
		r.send(req)
	}
	r.Wait(h)
	r.heldMutexes[m] = kind == opLock
}

// ---------- Collectives ----------

// Barrier synchronizes all ranks. The cost model is a dissemination barrier:
// ceil(log2(N)) rounds of BarrierStep each after the last rank arrives.
//
// The arrival counter is shared by every rank, so each arrival is registered
// through a global event (a serial instant in sharded mode): the rank posts
// its own gate event, the arrival lands on the global lane one lookahead
// later, and the final arrival fires every gate. The +lookahead hop applies
// identically in serial mode, keeping both modes bit-identical.
func (r *Rank) Barrier() {
	r.flushAllAgg()
	rt := r.rt
	gate := sim.NewEvent(rt.eng, "barrier")
	rt.eng.AtGlobal(r.node, func() {
		b := &rt.barrier
		b.arrived++
		b.gates = append(b.gates, gate)
		if b.arrived == len(rt.ranks) {
			b.arrived = 0
			gates := b.gates
			b.gates = nil
			for _, g := range gates {
				g.Fire()
			}
		}
	})
	gate.Wait(r.proc)
	steps := 0
	for 1<<steps < len(rt.ranks) {
		steps++
	}
	r.proc.Sleep(sim.Time(steps) * rt.cfg.BarrierStep)
}

func checkRange(a *allocation, off, n int) {
	if off < 0 || n < 0 || off+n > a.bytes {
		panic(fmt.Sprintf("armci: access [%d,%d) outside allocation %q of %d bytes",
			off, off+n, a.name, a.bytes))
	}
}
