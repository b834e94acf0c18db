package armci

import (
	"fmt"
	"math"

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
	// rt is set when the rank's body first runs, as proc is, so New writes
	// no pointer into the rank array.
	rt *Runtime
	// proc is the rank's process while its body runs, nil before and after:
	// the engine carves the process record at the first resume and reuses
	// it once the body exits.
	proc *sim.Proc
	// pool holds the rank's per-operation storage and everything else a
	// rank keeps beyond its identity, nil until first use (see scratch).
	pool       *rankPool
	rank, node int32
}

// rankPool is a rank's reusable per-operation storage and state, carved on
// the rank's first use of any of it, so a rank that issues nothing costs a
// Rank alone. Only the rank's own process and events of its node touch it,
// so it needs no lock.
type rankPool struct {
	// outstanding lists the handles Nb* calls returned, for Fence.
	outstanding []*Handle
	heldMutexes map[int]bool
	// agg buffers batchable nonblocking requests per target node when
	// Config.Agg is enabled; see agg.go for the flush boundaries.
	agg map[int][]*request
	// collective-layer state (see collectives.go)
	collSent map[int]int64
	collRecv map[int]int64

	// held and last are the ends of the list, in issue order, of the
	// pooled handles of operations the rank has issued and not yet read
	// (blocking calls, Pooled), so a crash of its node can fail them; free
	// is its free list of pooled handles (see Handle.drop). Both lists run
	// through the handles themselves, so they never grow a backing array.
	held, last, free *Handle
	// reqs collects a fresh operation's request records before submit.
	// submit (and the aggregation layer underneath) only iterates the
	// slice, so one backing array per rank serves every operation.
	reqs []*request
	// segs is the segment group chunkSegs builds, strided the segment list
	// a strided call lowers onto the vector path (the vector call copies
	// what it keeps), and hs the handle list a Pooled caller collects a
	// group of operations in.
	segs, strided []Seg
	hs            []*Handle
	// The lists start on these arrays, so a rank's first operations grow
	// nothing.
	reqs0          [4]*request
	segs0, stride0 [4]Seg
	hs0            [16]*Handle
	// gate is what the rank waits on in Barrier.
	gate sim.Gate
}

// scratch returns the rank's pool, carving it from the runtime's slab on
// first use.
func (r *Rank) scratch() *rankPool {
	if r.pool == nil {
		sc := r.rt.slabs.carvePool()
		sc.reqs, sc.segs, sc.strided, sc.hs = sc.reqs0[:0], sc.segs0[:0], sc.stride0[:0], sc.hs0[:0]
		r.pool = sc
	}
	return r.pool
}

// Rank returns the process's global rank in [0, N).
func (r *Rank) Rank() int { return int(r.rank) }

// Node returns the compute node hosting this rank.
func (r *Rank) Node() int { return int(r.node) }

// N returns the total number of ranks.
func (r *Rank) N() int { return len(r.rt.ranks) }

// Runtime returns the owning runtime.
func (r *Rank) Runtime() *Runtime { return r.rt }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Sleep models local computation for d of virtual time.
func (r *Rank) Sleep(d sim.Time) { r.proc.Sleep(d) }

// Proc exposes the underlying simulated process. It is nil outside the
// rank's body: call it from the body only.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Local returns this rank's own slice of the named allocation. Like
// Runtime.Memory it flattens the rank's memory of that allocation into one
// slab, which every later access then uses.
func (r *Rank) Local(alloc string) []byte { return r.rt.Memory(r.Rank(), alloc) }

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

// track registers a handle for Fence accounting, or a pooled one in held,
// and returns it. A handle complete already (a same-node or zero-byte
// operation) is left out: nothing can fail it.
func (r *Rank) track(h *Handle) *Handle {
	sc := h.pool
	switch {
	case h.Done():
		return h
	case sc == nil:
		sc := r.scratch()
		sc.outstanding = append(sc.outstanding, h)
		return h
	}
	h.prev = sc.last
	if sc.last != nil {
		sc.last.next = h
	} else {
		sc.held = h
	}
	sc.last = h
	return h
}

// handle returns a handle for a fresh operation of chunks chunks and a
// dataBytes get result: from the rank's free list when pooled, otherwise a
// heap object for an Nb* caller to keep.
func (r *Rank) handle(chunks, dataBytes int, pooled bool) *Handle {
	if !pooled {
		return newHandle(chunks, dataBytes)
	}
	sc := r.scratch()
	h := sc.free
	if h != nil {
		sc.free, h.next = h.next, nil
		h.freed = false
	} else {
		h = r.rt.slabs.carveHandle()
		h.pool = sc
	}
	h.reset(chunks)
	h.data = r.rt.growBytes(h.data, dataBytes)[:dataBytes]
	clear(h.data)
	return h
}

// await completes a blocking call's pooled handle: the caller reads the
// result from it, then lets go with release.
func (r *Rank) await(h *Handle) *Handle {
	r.Wait(r.track(h))
	return h
}

// release lets go of the rank's hold on a pooled handle it has read,
// unlinking it from held if it was tracked.
func (r *Rank) release(h *Handle) {
	if sc := h.pool; h.prev != nil || sc.held == h {
		if h.prev != nil {
			h.prev.next = h.next
		} else {
			sc.held = h.next
		}
		if h.next != nil {
			h.next.prev = h.prev
		} else {
			sc.last = h.prev
		}
		h.prev, h.next = nil, nil
	}
	h.drop()
}

// Pooled issues operations on pooled handles, for the layers this module
// builds on the runtime (internal/ga, internal/figures): each Nb* call
// returns a handle from the rank's free list, which the caller waits on,
// reads, and hands back with Release. The handle must not be touched after
// Release, so Pooled is reached through a function of this package, not a
// method of Rank: the public facade (armcivt.Rank) hands out only heap
// handles a caller may keep.
type Pooled struct{ r *Rank }

// Pool returns r's pooled-handle view.
func Pool(r *Rank) Pooled { return Pooled{r} }

// NbGetS is Rank.NbGetS on a pooled handle.
func (p Pooled) NbGetS(src int, alloc string, off, blockLen, stride, count int) *Handle {
	r := p.r
	return r.track(r.getV(src, alloc, r.stridedSegs(off, blockLen, stride, count), true))
}

// NbPutS is Rank.NbPutS on a pooled handle.
func (p Pooled) NbPutS(dst int, alloc string, off, blockLen, stride, count int, data []byte) *Handle {
	r := p.r
	return r.track(r.putV(dst, alloc, r.stridedSegs(off, blockLen, stride, count), data, true))
}

// NbAcc is Rank.NbAcc on a pooled handle.
func (p Pooled) NbAcc(dst int, alloc string, off int, scale float64, vals []float64) *Handle {
	return p.r.track(p.r.acc(dst, alloc, off, scale, vals, true))
}

// Release hands back a pooled handle once the caller has waited on it and
// read its result.
func (p Pooled) Release(h *Handle) { p.r.release(h) }

// Handles returns the rank's reusable handle list, emptied, for collecting
// a group of operations; KeepHandles hands it back for the next group.
func (p Pooled) Handles() []*Handle { return p.r.scratch().hs[:0] }

// KeepHandles stores hs's backing array as the rank's handle list.
func (p Pooled) KeepHandles(hs []*Handle) { p.r.scratch().hs = hs[:0] }

// Wait blocks until h completes. With aggregation enabled it first flushes
// the rank's aggregation buffers — h may be riding in one.
func (r *Rank) Wait(h *Handle) {
	r.flushAllAgg()
	h.done.Wait(r.proc, handleLabel)
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
	sc := r.pool
	if sc == nil {
		return
	}
	for _, h := range sc.outstanding {
		r.Wait(h)
	}
	sc.outstanding = sc.outstanding[:0]
}

// send injects one request chunk toward the target node through the virtual
// topology; the rank blocks until a first-hop buffer credit is available
// (ARMCI's sender-side flow control).
func (r *Rank) send(req *request) {
	rt := r.rt
	targetNode := int(req.target) / rt.cfg.PPN
	// Crash-stop fast path: a crashed origin cannot inject, and a target
	// this node's membership view has confirmed dead is not worth the full
	// retry schedule. Both fail the chunk with *NodeFailedError.
	if err := rt.deadRouteErr(r.Node(), targetNode); err != nil {
		rt.abortChunks(err, req)
		return
	}
	// Anything still aggregating for this target must go first, or a
	// buffered earlier write could be applied after this request.
	r.flushAgg(targetNode)
	rt.armTimeout(req)
	first := rt.nextHop(r.Node(), targetNode)
	rt.egressTo(r.Node(), first).submitRank(r.proc, req)
}

// localDelay models a shared-memory operation touching n payload bytes.
func (r *Rank) localDelay(n int) {
	r.proc.Sleep(r.rt.cfg.LocalLatency + sim.Time(float64(n)*r.rt.cfg.LocalPerByte))
}

// ---------- Contiguous put/get ----------

// NbPut starts a one-sided put of data into dst's allocation at byte offset
// off.
func (r *Rank) NbPut(dst int, alloc string, off int, data []byte) *Handle {
	return r.track(r.put(dst, alloc, off, data, false))
}

// Put is the blocking form of NbPut.
func (r *Rank) Put(dst int, alloc string, off int, data []byte) {
	r.release(r.await(r.put(dst, alloc, off, data, true)))
}

func (r *Rank) put(dst int, alloc string, off int, data []byte, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, len(data))
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(len(data))
		a.write(dst, off, data)
		return r.handle(0, 0, pooled)
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkContig(off, len(data), func(o, ln int) {
		req := rt.getReq(r.Node())
		req.setOp(opPut, r, dst)
		req.alloc, req.off = a, o
		req.data = data[o-off : o-off+ln]
		req.wire = int32(headerBytes + ln)
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), 0, pooled)
	r.submit(reqs, h)
	return h
}

// NbGet starts a one-sided get of n bytes from src's allocation at off.
func (r *Rank) NbGet(src int, alloc string, off, n int) *Handle {
	return r.track(r.get(src, alloc, off, n, false))
}

// Get is the blocking form of NbGet; it returns the fetched bytes in a
// fresh slice.
func (r *Rank) Get(src int, alloc string, off, n int) []byte {
	return r.detach(r.await(r.get(src, alloc, off, n, true)))
}

// detach releases a blocking get's pooled handle and returns a fresh copy
// of its result; the handle keeps its buffer for the next operation.
func (r *Rank) detach(h *Handle) []byte {
	data := append([]byte(nil), h.data...)
	r.release(h)
	return data
}

func (r *Rank) get(src int, alloc string, off, n int, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, n)
	if r.nodeOf(src) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(n)
		h := r.handle(0, n, pooled)
		a.read(src, off, h.data)
		return h
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkContig(off, n, func(o, ln int) {
		req := rt.getReq(r.Node())
		req.setOp(opGet, r, src)
		req.alloc, req.off = a, o
		req.getBytes, req.flatOff = int32(ln), o-off
		req.wire = headerBytes
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), n, pooled)
	r.submit(reqs, h)
	return h
}

// ---------- Accumulate ----------

// NbAcc starts an atomic accumulate: dst_mem[off+8i] += scale * vals[i] for
// float64 elements.
func (r *Rank) NbAcc(dst int, alloc string, off int, scale float64, vals []float64) *Handle {
	return r.track(r.acc(dst, alloc, off, scale, vals, false))
}

// Acc is the blocking form of NbAcc.
func (r *Rank) Acc(dst int, alloc string, off int, scale float64, vals []float64) {
	r.release(r.await(r.acc(dst, alloc, off, scale, vals, true)))
}

func (r *Rank) acc(dst int, alloc string, off int, scale float64, vals []float64, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	n := 8 * len(vals)
	checkRange(a, off, n)
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(n)
		for i, v := range vals {
			a.accFloat64(dst, off+8*i, scale, v)
		}
		return r.handle(0, 0, pooled)
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	// Chunk on 8-byte boundaries so no float64 straddles two chunks; each
	// chunk's payload is encoded into the record's own buffer.
	per := rt.cfg.payloadPerChunk(0) &^ 7
	for done := 0; done < n; done += per {
		ln := n - done
		if ln > per {
			ln = per
		}
		req := rt.getReq(r.Node())
		req.setOp(opAcc, r, dst)
		req.alloc, req.off = a, off+done
		req.buf = appendFloat64s(rt.growBytes(req.buf, ln), vals[done/8:(done+ln)/8])
		req.data, req.arg = req.buf, math.Float64bits(scale)
		req.wire = int32(headerBytes + ln)
		reqs = append(reqs, req)
	}
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), 0, pooled)
	r.submit(reqs, h)
	return h
}

// ---------- Vectored (noncontiguous) put/get ----------

// NbPutV starts a vectored put: data is scattered into dst's allocation
// according to segs (data length must equal the summed segment length).
func (r *Rank) NbPutV(dst int, alloc string, segs []Seg, data []byte) *Handle {
	return r.track(r.putV(dst, alloc, segs, data, false))
}

// PutV is the blocking form of NbPutV.
func (r *Rank) PutV(dst int, alloc string, segs []Seg, data []byte) {
	r.release(r.await(r.putV(dst, alloc, segs, data, true)))
}

func (r *Rank) putV(dst int, alloc string, segs []Seg, data []byte, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	total := segsBytes(segs)
	if total != len(data) {
		panic(fmt.Sprintf("armci: PutV data length %d != segments total %d", len(data), total))
	}
	for _, s := range segs {
		checkRange(a, s.Off, s.Len)
	}
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(total)
		pos := 0
		for _, s := range segs {
			a.write(dst, s.Off, data[pos:pos+s.Len])
			pos += s.Len
		}
		return r.handle(0, 0, pooled)
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkSegs(segs, 1, &sc.segs, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.Node())
		req.setOp(opPutV, r, dst)
		req.alloc = a
		req.segs = append(rt.growSegs(req.segs, len(group)), group...) // chunker reuses group: copy
		req.data = data[flatOff : flatOff+payload]
		req.wire = int32(headerBytes + len(group)*segDescBytes + payload)
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), 0, pooled)
	r.submit(reqs, h)
	return h
}

// NbGetV starts a vectored get; the completed handle's Data gathers the
// segments in order.
func (r *Rank) NbGetV(src int, alloc string, segs []Seg) *Handle {
	return r.track(r.getV(src, alloc, segs, false))
}

// GetV is the blocking form of NbGetV; it returns the gathered bytes in a
// fresh slice.
func (r *Rank) GetV(src int, alloc string, segs []Seg) []byte {
	return r.detach(r.await(r.getV(src, alloc, segs, true)))
}

func (r *Rank) getV(src int, alloc string, segs []Seg, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	total := segsBytes(segs)
	for _, s := range segs {
		checkRange(a, s.Off, s.Len)
	}
	if r.nodeOf(src) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(total)
		h := r.handle(0, total, pooled)
		pos := 0
		for _, s := range segs {
			a.read(src, s.Off, h.data[pos:pos+s.Len])
			pos += s.Len
		}
		return h
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkSegs(segs, 1, &sc.segs, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.Node())
		req.setOp(opGetV, r, src)
		req.alloc = a
		req.segs = append(rt.growSegs(req.segs, len(group)), group...) // chunker reuses group: copy
		req.flatOff = flatOff
		req.wire = int32(headerBytes + len(group)*segDescBytes)
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), total, pooled)
	r.submit(reqs, h)
	return h
}

// ---------- Strided put/get (lowered onto the vector path) ----------

// stridedSegs lowers a strided region onto the rank's reusable segment
// list; the vector call it feeds copies what it keeps.
func (r *Rank) stridedSegs(off, blockLen, stride, count int) []Seg {
	sc := r.scratch()
	sc.strided = appendStridedSegs(sc.strided[:0], off, blockLen, stride, count)
	return sc.strided
}

// PutS performs a blocking strided put: count blocks of blockLen bytes,
// stride bytes apart in the target allocation, starting at off.
func (r *Rank) PutS(dst int, alloc string, off, blockLen, stride, count int, data []byte) {
	r.PutV(dst, alloc, r.stridedSegs(off, blockLen, stride, count), data)
}

// NbPutS is the non-blocking form of PutS.
func (r *Rank) NbPutS(dst int, alloc string, off, blockLen, stride, count int, data []byte) *Handle {
	return r.NbPutV(dst, alloc, r.stridedSegs(off, blockLen, stride, count), data)
}

// GetS performs a blocking strided get.
func (r *Rank) GetS(src int, alloc string, off, blockLen, stride, count int) []byte {
	return r.GetV(src, alloc, r.stridedSegs(off, blockLen, stride, count))
}

// NbGetS is the non-blocking form of GetS.
func (r *Rank) NbGetS(src int, alloc string, off, blockLen, stride, count int) *Handle {
	return r.NbGetV(src, alloc, r.stridedSegs(off, blockLen, stride, count))
}

// ---------- Atomics ----------

// NbFetchAdd starts an atomic fetch-and-add of delta to the int64 at dst's
// allocation offset off; the completed handle's Old() is the previous value.
// Nonblocking atomics pipeline (and, with aggregation, batch) the hot-spot
// counter traffic of Figure 7.
func (r *Rank) NbFetchAdd(dst int, alloc string, off int, delta int64) *Handle {
	return r.track(r.fetchAdd(dst, alloc, off, delta, false))
}

// FetchAdd atomically adds delta to the int64 at dst's allocation offset off
// and returns the previous value (ARMCI_Rmw fetch-and-add).
func (r *Rank) FetchAdd(dst int, alloc string, off int, delta int64) int64 {
	h := r.await(r.fetchAdd(dst, alloc, off, delta, true))
	old := h.old
	r.release(h)
	return old
}

func (r *Rank) fetchAdd(dst int, alloc string, off int, delta int64, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, 8)
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(8)
		old := a.loadInt64(dst, off)
		a.storeInt64(dst, off, old+delta)
		h := r.handle(0, 0, pooled)
		h.old = old
		return h
	}
	req := rt.getReq(r.Node())
	req.setOp(opRmw, r, dst)
	req.alloc, req.off, req.arg = a, off, uint64(delta)
	req.wire = headerBytes + 8
	h := r.handle(1, 0, pooled)
	r.submitOne(req, h)
	return h
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
	sc := r.scratch()
	if sc.heldMutexes == nil {
		sc.heldMutexes = map[int]bool{}
	}
	switch kind {
	case opLock:
		if sc.heldMutexes[m] {
			panic(fmt.Sprintf("armci: rank %d re-locking mutex %d it already holds", r.Rank(), m))
		}
	case opUnlock:
		if !sc.heldMutexes[m] {
			panic(fmt.Sprintf("armci: rank %d unlocking mutex %d it does not hold", r.Rank(), m))
		}
	}
	rt.st(r.Node()).Ops++
	ownerNode := m % rt.cfg.Nodes
	ownerRank := ownerNode * rt.cfg.PPN
	req := rt.getReq(r.Node())
	req.setOp(kind, r, ownerRank)
	req.arg, req.wire = uint64(m), headerBytes
	h := r.handle(1, 0, true)
	req.setHandle(h, 0)
	// Crash-stop fast path, as in send. A mutex whose owner node crashed
	// while a rank held it stays wedged for other contenders — lock state is
	// volatile and dies with the owner (a documented limitation) — but a
	// lock op issued toward a confirmed-dead owner fails fast here.
	if err := rt.deadRouteErr(r.Node(), ownerNode); err != nil {
		rt.abortChunks(err, req)
		r.Wait(h)
		r.release(h)
		return
	}
	if ownerNode == r.Node() {
		// Same-node mutex traffic still goes through the owner CHT (the
		// authority for the mutex) but over shared memory: no credits.
		rt.st(r.Node()).LocalOps++
		req.up = nil
		node := rt.node(ownerNode)
		rt.eng.AfterOn(ownerNode, rt.cfg.LocalLatency, func() { node.enqueue(req) })
	} else {
		r.send(req)
	}
	r.Wait(h)
	r.release(h)
	sc.heldMutexes[m] = kind == opLock
}

// ---------- Collectives ----------

// Barrier synchronizes all ranks. The cost model is a dissemination barrier:
// ceil(log2(N)) rounds of BarrierStep each after the last rank arrives.
//
// The arrival counter is shared by every rank, so each arrival is registered
// through a global event: the rank posts its own gate event, the arrival
// lands one link hop latency later (sim.Engine.AtGlobal), and the final
// arrival fires every gate.
func (r *Rank) Barrier() {
	r.flushAllAgg()
	rt := r.rt
	gate := &r.scratch().gate
	gate.Init(rt.eng, "event barrier")
	rt.eng.AtGlobalArg(rt.arriveFn, gate)
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
