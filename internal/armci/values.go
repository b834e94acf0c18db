package armci

import (
	"fmt"
	"math"
)

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
	rt.st(r.Node()).Ops++
	a := rt.alloc(alloc)
	checkRange(a, off, 8)
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(8)
		old := a.loadInt64(dst, off)
		a.storeInt64(dst, off, v)
		return old
	}
	req := rt.getReq(r.Node())
	req.setOp(opSwap, r, dst)
	req.alloc, req.off, req.arg = a, off, uint64(v)
	req.wire = headerBytes + 8
	h := r.handle(1, 0, true)
	r.submitOne(req, h)
	old := r.await(h).old
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
	rt.st(r.Node()).Ops++
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
	if r.nodeOf(dst) == r.Node() {
		rt.st(r.Node()).LocalOps++
		r.localDelay(total)
		pos := 0
		for _, s := range segs {
			for b := 0; b < s.Len; b += 8 {
				a.accFloat64(dst, s.Off+b, scale, vals[(pos+b)/8])
			}
			pos += s.Len
		}
		return r.handle(0, 0, pooled)
	}
	sc := r.scratch()
	reqs := sc.reqs[:0]
	rt.cfg.chunkSegs(segs, 8, &sc.segs, func(group []Seg, payload, flatOff int) {
		req := rt.getReq(r.Node())
		req.setOp(opAccV, r, dst)
		req.alloc = a
		req.segs = append(rt.growSegs(req.segs, len(group)), group...) // chunker reuses group: copy
		req.buf = appendFloat64s(rt.growBytes(req.buf, payload), vals[flatOff/8:(flatOff+payload)/8])
		req.data, req.arg = req.buf, math.Float64bits(scale)
		req.wire = int32(headerBytes + len(group)*segDescBytes + payload)
		reqs = append(reqs, req)
	})
	sc.reqs = reqs[:0]
	h := r.handle(len(reqs), 0, pooled)
	r.submit(reqs, h)
	return h
}
