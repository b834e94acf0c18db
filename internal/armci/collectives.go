package armci

import "fmt"

// Message-layer collectives in the style of ARMCI's armci_msg_* helpers:
// broadcast, reduce and allreduce over binomial trees, built entirely from
// one-sided puts plus tagged notify-wait (no hidden machinery — collective
// traffic crosses the same virtual topology and pays the same costs as
// everything else).
//
// SPMD contract: every rank must execute the same sequence of collective
// calls. Payloads are limited to CollPayloadMax bytes (enough for the
// residuals, dot products and control values GAS applications reduce).
// Collectives are synchronizing: they end with a barrier (as ARMCI's
// armci_msg_* helpers, which delegate to MPI collectives, effectively are),
// which also guarantees a rank can never race ahead and overwrite scratch
// data a neighbour has not consumed.
//
// Internals: each rank owns a double-buffered scratch region ("armci.coll").
// Within a buffer, slot 0 carries broadcast payloads and slot 1+p carries
// the reduction payload of tree phase p, so concurrent children write
// disjoint slots. Buffers alternate by the cumulative per-pair message
// count — a quantity sender and receiver agree on by construction — so the
// scheme also works for processor groups, whose members' collective
// sequence numbers drift relative to the rest of the job.

const (
	collAlloc = "armci.coll"
	collChunk = 2048
	// CollPayloadMax is the largest payload Bcast/Reduce/Allreduce accept.
	CollPayloadMax = collChunk - 8 // 8-byte length prefix
)

// collSlots returns the per-buffer slot count for n ranks: one broadcast
// slot plus one per binomial phase.
func collSlots(n int) int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	return bits + 1
}

// collInit registers the scratch allocation; called from New.
func (rt *Runtime) collInit() {
	rt.Alloc(collAlloc, 2*collSlots(rt.NRanks())*collChunk)
}

// collBase returns the scratch offset for buffer bufIdx (0 or 1) and slot.
func (r *Rank) collBase(bufIdx int64, slot int) int {
	return (int(bufIdx)*collSlots(len(r.rt.ranks)) + slot) * collChunk
}

// collSend writes payload into dst's scratch slot and notifies. The buffer
// index alternates with the pair's cumulative message count.
func (r *Rank) collSend(dst int, slot int, payload []byte) {
	sc := r.scratch()
	if sc.collSent == nil {
		sc.collSent = map[int]int64{}
	}
	sc.collSent[dst]++
	buf := make([]byte, 8+len(payload))
	PutInt64(buf, 0, int64(len(payload)))
	copy(buf[8:], payload)
	r.Put(dst, collAlloc, r.collBase(sc.collSent[dst]%2, slot), buf)
	r.NotifyTag(dst, "coll")
}

// collRecvFrom waits for src's next collective message and returns the
// payload stored in the caller's slot.
func (r *Rank) collRecvFrom(src int, slot int) []byte {
	sc := r.scratch()
	if sc.collRecv == nil {
		sc.collRecv = map[int]int64{}
	}
	sc.collRecv[src]++
	r.WaitNotifyTag(src, "coll", sc.collRecv[src])
	a := r.rt.alloc(collAlloc)
	base := r.collBase(sc.collRecv[src]%2, slot)
	out := make([]byte, a.loadInt64(r.Rank(), base))
	a.read(r.Rank(), base+8, out)
	return out
}

// Bcast broadcasts data from root to every rank over a binomial tree and
// returns the received payload (the root returns a copy of its input).
// Non-root callers pass nil.
func (r *Rank) Bcast(root int, data []byte) []byte {
	rt := r.rt
	if root < 0 || root >= len(rt.ranks) {
		panic(fmt.Sprintf("armci: Bcast root %d out of range", root))
	}
	out := r.bcastOver(rt.worldMembers(), root, data)
	r.Barrier()
	return out
}

// bcastOver runs the binomial broadcast across the given member list, with
// the root at member index rootIdx. The caller must be a member and must
// follow with the appropriate (world or group) barrier.
func (r *Rank) bcastOver(members []int, rootIdx int, data []byte) []byte {
	m := len(members)
	if m == 1 {
		return append([]byte(nil), data...)
	}
	myIdx := indexOf(members, r.Rank())
	vrank := (myIdx - rootIdx + m) % m
	abs := func(v int) int { return members[(v+rootIdx)%m] }

	var payload []byte
	mask := 1
	if vrank == 0 {
		if len(data) > CollPayloadMax {
			panic(fmt.Sprintf("armci: Bcast payload %d exceeds %d", len(data), CollPayloadMax))
		}
		payload = append([]byte(nil), data...)
		for mask < m {
			mask <<= 1
		}
	} else {
		for mask < m {
			if vrank&mask != 0 {
				payload = r.collRecvFrom(abs(vrank-mask), 0)
				break
			}
			mask <<= 1
		}
	}
	// Relay downward: every mask below the receive bit names a child.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < m {
			r.collSend(abs(vrank+mask), 0, payload)
		}
	}
	return payload
}

func indexOf(members []int, rank int) int {
	// World collectives use the identity member list; skip the scan.
	if rank < len(members) && members[rank] == rank {
		return rank
	}
	for i, v := range members {
		if v == rank {
			return i
		}
	}
	panic(fmt.Sprintf("armci: rank %d not in collective member list", rank))
}

// reduceOp combines two float64 vectors elementwise in place (dst op= src).
type reduceOp func(dst, src []float64)

func sumOp(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func maxOp(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// reduce runs a binomial reduction of vals toward root; the returned slice
// holds the reduction at the root (other ranks get their partial).
func (r *Rank) reduce(root int, vals []float64, op reduceOp) []float64 {
	rt := r.rt
	if root < 0 || root >= len(rt.ranks) {
		panic(fmt.Sprintf("armci: Reduce root %d out of range", root))
	}
	acc := r.reduceOver(rt.worldMembers(), root, vals, op)
	r.Barrier()
	return acc
}

// reduceOver runs the binomial reduction across the given member list. The
// caller must be a member and must follow with the matching barrier.
func (r *Rank) reduceOver(members []int, rootIdx int, vals []float64, op reduceOp) []float64 {
	if 8*len(vals) > CollPayloadMax {
		panic(fmt.Sprintf("armci: Reduce payload %d floats exceeds %d bytes", len(vals), CollPayloadMax))
	}
	m := len(members)
	acc := append([]float64(nil), vals...)
	if m == 1 {
		return acc
	}
	myIdx := indexOf(members, r.Rank())
	vrank := (myIdx - rootIdx + m) % m
	abs := func(v int) int { return members[(v+rootIdx)%m] }
	phase := 0
	for mask := 1; mask < m; mask <<= 1 {
		phase++
		if vrank&mask != 0 {
			r.collSend(abs(vrank-mask), phase, Float64sToBytes(acc))
			break
		}
		if vrank+mask < m {
			part := BytesToFloat64s(r.collRecvFrom(abs(vrank+mask), phase))
			if len(part) != len(acc) {
				panic(fmt.Sprintf("armci: Reduce length mismatch: %d vs %d (unequal payloads across ranks?)", len(part), len(acc)))
			}
			op(acc, part)
		}
	}
	return acc
}

// ReduceSum reduces vals elementwise to the root (valid there; other ranks
// receive an undefined partial).
func (r *Rank) ReduceSum(root int, vals []float64) []float64 { return r.reduce(root, vals, sumOp) }

// ReduceMax is ReduceSum with elementwise maximum.
func (r *Rank) ReduceMax(root int, vals []float64) []float64 { return r.reduce(root, vals, maxOp) }

// AllreduceSum returns the elementwise global sum on every rank
// (reduce-to-0 then broadcast).
func (r *Rank) AllreduceSum(vals []float64) []float64 {
	red := r.reduce(0, vals, sumOp)
	var payload []byte
	if r.Rank() == 0 {
		payload = Float64sToBytes(red)
	}
	return BytesToFloat64s(r.Bcast(0, payload))
}

// AllreduceMax returns the elementwise global maximum on every rank.
func (r *Rank) AllreduceMax(vals []float64) []float64 {
	red := r.reduce(0, vals, maxOp)
	var payload []byte
	if r.Rank() == 0 {
		payload = Float64sToBytes(red)
	}
	return BytesToFloat64s(r.Bcast(0, payload))
}
