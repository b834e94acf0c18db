package armci

import "fmt"

// Convenience value operations mirroring ARMCI_PutValueInt/ARMCI_GetValueInt
// and friends: single-element transfers without caller-side byte packing.

// PutInt64At stores v into dst's allocation at byte offset off.
func (r *Rank) PutInt64At(dst int, alloc string, off int, v int64) {
	buf := make([]byte, 8)
	PutInt64(buf, 0, v)
	r.Put(dst, alloc, off, buf)
}

// GetInt64At fetches the int64 at dst's allocation offset off.
func (r *Rank) GetInt64At(dst int, alloc string, off int) int64 {
	h := r.await(r.get(dst, alloc, off, 8, true))
	v := GetInt64(h.data, 0)
	r.release(h)
	return v
}

// PutFloat64At stores v into dst's allocation at byte offset off.
func (r *Rank) PutFloat64At(dst int, alloc string, off int, v float64) {
	buf := make([]byte, 8)
	PutFloat64(buf, 0, v)
	r.Put(dst, alloc, off, buf)
}

// GetFloat64At fetches the float64 at dst's allocation offset off.
func (r *Rank) GetFloat64At(dst int, alloc string, off int) float64 {
	h := r.await(r.get(dst, alloc, off, 8, true))
	v := GetFloat64(h.data, 0)
	r.release(h)
	return v
}

// Swap atomically exchanges the int64 at dst's allocation offset off with v
// and returns the previous value (ARMCI_SWAP).
func (r *Rank) Swap(dst int, alloc string, off int, v int64) int64 {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, 8)
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(8)
		mem := a.slab(dst)
		old := GetInt64(mem, off)
		PutInt64(mem, off, v)
		return old
	}
	req := rt.getReq(r.node)
	req.kind, req.origin, req.originNode, req.target = opSwap, r.rank, r.node, dst
	req.alloc, req.off, req.delta = alloc, off, v
	req.wire = headerBytes + 8
	h := r.handle(1, 0, true)
	req.setHandle(h, 0)
	r.send(req)
	r.Wait(h)
	old := h.old
	r.release(h)
	return old
}

// NbAccV starts a vectored accumulate: for each segment, target float64
// elements receive scale * the corresponding vals elements (ARMCI_AccV).
// Segment offsets and lengths must be 8-byte aligned.
func (r *Rank) NbAccV(dst int, alloc string, segs []Seg, scale float64, vals []float64) *Handle {
	return r.track(r.accV(dst, alloc, segs, scale, vals, false))
}

// AccV is the blocking form of NbAccV.
func (r *Rank) AccV(dst int, alloc string, segs []Seg, scale float64, vals []float64) {
	r.release(r.await(r.accV(dst, alloc, segs, scale, vals, true)))
}

// AccS performs a blocking strided accumulate (ARMCI_AccS), lowered onto
// the vector path.
func (r *Rank) AccS(dst int, alloc string, off, blockLen, stride, count int, scale float64, vals []float64) {
	r.AccV(dst, alloc, r.stridedSegs(off, blockLen, stride, count), scale, vals)
}

func (r *Rank) accV(dst int, alloc string, segs []Seg, scale float64, vals []float64, pooled bool) *Handle {
	rt := r.rt
	rt.st(r.node).Ops++
	a := rt.alloc(alloc)
	total := segsBytes(segs)
	if total != 8*len(vals) {
		panic(fmt.Sprintf("armci: AccV %d values do not cover %d segment bytes", len(vals), total))
	}
	for _, s := range segs {
		if s.Off%8 != 0 || s.Len%8 != 0 {
			panic(fmt.Sprintf("armci: AccV segment %+v not 8-byte aligned", s))
		}
		checkRange(a, s.Off, s.Len)
	}
	if r.nodeOf(dst) == r.node {
		rt.st(r.node).LocalOps++
		r.localDelay(total)
		mem := a.slab(dst)
		pos := 0
		for _, s := range segs {
			for b := 0; b < s.Len; b += 8 {
				v := GetFloat64(mem, s.Off+b) + scale*vals[(pos+b)/8]
				PutFloat64(mem, s.Off+b, v)
			}
			pos += s.Len
		}
		return r.handle(0, 0, pooled)
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkSegs(segs, 8, &sc.segs, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.node)
		req.kind, req.origin, req.originNode, req.target = opAccV, r.rank, r.node, dst
		req.alloc = alloc
		req.segs = append(rt.growSegs(req.segs, len(group)), group...) // chunker reuses group: copy
		req.buf = appendFloat64s(rt.growBytes(req.buf, payload), vals[flatOff/8:(flatOff+payload)/8])
		req.data, req.scale = req.buf, scale
		req.wire = headerBytes + len(group)*segDescBytes + payload
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), 0, pooled)
	for i, req := range reqs {
		req.setHandle(h, i)
		r.send(req)
	}
	return h
}
