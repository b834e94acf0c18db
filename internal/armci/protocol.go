package armci

import (
	"encoding/binary"
	"fmt"
	"math"

	"armcivt/internal/sim"
)

// opKind enumerates the one-sided request types the CHT protocol carries.
type opKind int

const (
	opPut opKind = iota
	opGet
	opAcc
	opRmw
	opLock
	opUnlock
	opPutV
	opGetV
	opSwap
	opAccV
	// opBatch is an aggregated multi-op packet: several small same-target
	// requests traveling as one wire message under one buffer credit. The
	// CHT unpacks it at the target and applies the sub-ops back-to-back.
	opBatch
)

func (k opKind) String() string {
	switch k {
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opAcc:
		return "acc"
	case opRmw:
		return "rmw"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opPutV:
		return "putv"
	case opGetV:
		return "getv"
	case opSwap:
		return "swap"
	case opAccV:
		return "accv"
	case opBatch:
		return "batch"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Seg describes one segment of a vectored (noncontiguous) operation on the
// target allocation.
type Seg struct {
	Off int // byte offset in the target rank's allocation
	Len int // byte length
}

// request is one chunk of a one-sided operation traveling through the
// virtual topology. It occupies exactly one request buffer at each node it
// visits.
type request struct {
	kind       opKind
	origin     int // issuing rank
	originNode int
	target     int // target rank
	alloc      string
	off        int     // contiguous ops: target offset
	data       []byte  // put/acc payload for this chunk: the caller's bytes, or buf
	segs       []Seg   // vectored ops: target segments of this chunk (owned, kept across recycling)
	buf        []byte  // owned payload storage: accumulate encodings, clone copies (kept across recycling)
	scale      float64 // accumulate scale factor
	delta      int64   // rmw addend
	mutex      int     // lock/unlock: mutex index
	getBytes   int     // get: bytes requested (contiguous)
	flatOff    int     // get: this chunk's offset into the assembled result
	wire       int     // message size on the fabric
	prevNode   int     // upstream node owed a buffer credit (-1: none)
	nextNode   int     // hop in flight: delivery target (stamped by transmit)
	h          *Handle // origin-side completion handle
	// subs carries the aggregated sub-operations of an opBatch packet, in
	// issue (rid) order; nil for every other kind. Each sub keeps its own
	// handle/rid/chunk, so completion, dedup and retry act per sub-op.
	subs []*request

	// ce records that this request crossed a congestion-experienced port on
	// its way to the target (fabric ECN marking); the response echoes it to
	// the origin's pacer. Never set unless Fabric.CongestionThreshold > 0.
	ce bool
	// freed marks the record as parked on its origin node's free list; holds
	// counts the parties that can still reach it (see Runtime.release).
	freed bool
	holds int32

	// Response parameters, stamped by the target's respond: the request
	// record itself rides the response message back to the origin, where
	// completeResp applies them (no per-response closure, no separate
	// response record). respFrom is the responding node.
	respData []byte
	respOld  int64
	respFrom int

	chunk int // index into the handle's chunkDone bitset

	// Resilience fields, populated only when Config.RequestTimeout > 0.
	rid     uint64   // runtime-unique request id, the target's dedup key
	attempt int      // transmissions so far beyond the first
	issued  sim.Time // first transmission instant, for TimeoutError
	timeout sim.Time // the armed timer's interval, backed off per retry
}

// setHandle points req at chunk chunk of h; the record holds h until it
// returns to its origin's free list (putReq).
func (req *request) setHandle(h *Handle, chunk int) {
	req.h, req.chunk = h, chunk
	h.holds++
}

// Handle tracks completion of a (possibly multi-chunk) non-blocking
// operation. Obtain one from the Nb* methods on Rank and finish it with
// Rank.Wait.
type Handle struct {
	pending int
	// done is embedded by value (sim.Event.Init) so a handle is one heap
	// object, not two.
	done sim.Event
	// Get results are assembled here in chunk order.
	data []byte
	// Rmw old value.
	old int64
	// issued total chunks, for diagnostics.
	chunks int
	// doneBits marks chunks already completed (or failed), making completion
	// idempotent under retransmission: a retried chunk whose original
	// response arrives late must not over-complete the handle. Operations
	// span a handful of chunks, so an inline 64-bit set covers all but
	// pathological ops; doneOv is the overflow bitset past 64 chunks.
	doneBits uint64
	doneOv   []bool
	// err is the first failure recorded against any chunk.
	err error

	// pool is the rank pool whose free list a pooled handle returns to,
	// nil for a handle an Nb* method returns to its caller: Handle is
	// public, so such a handle stays a heap object the caller may keep.
	// holds counts the parties that can still reach the handle: the
	// issuing rank until it has read the result, and every request record
	// pointing at it (setHandle, cloneReq; dropped in putReq). A pooled
	// handle is recycled at zero holds (drop), so a late response to a
	// record that still points at it can never complete the next operation
	// reusing it.
	pool  *rankPool
	holds int32
	freed bool
	// prev and next link a pooled handle into its rank pool's held list,
	// next alone into its free list.
	prev, next *Handle
}

func newHandle(eng *sim.Engine, chunks int, dataBytes int) *Handle {
	h := &Handle{}
	h.reset(eng, chunks)
	if dataBytes > 0 {
		h.data = make([]byte, dataBytes)
	}
	return h
}

// reset arms h for an operation of chunks chunks, held by its issuer. The
// caller sizes the result buffer: a pooled handle keeps its backing array
// across operations.
func (h *Handle) reset(eng *sim.Engine, chunks int) {
	h.pending, h.chunks = chunks, chunks
	h.done.Init(eng, "op")
	h.old, h.err, h.doneBits, h.doneOv = 0, nil, 0, nil
	if chunks > 64 {
		h.doneOv = make([]bool, chunks)
	}
	h.holds = 1
	if chunks == 0 {
		h.done.Fire()
	}
}

// drop lets go of one hold on h. The last hold on a pooled handle returns it
// to its rank's free list; that party always runs in the rank's node's owner
// context (the rank itself, or putReq at the origin). Dropping a handle with
// no holds panics: it would put one handle on the free list twice.
func (h *Handle) drop() {
	if h.holds <= 0 {
		panic("armci: handle released twice")
	}
	if h.holds--; h.holds == 0 && h.pool != nil {
		if h.freed {
			panic("armci: handle released twice")
		}
		h.freed = true
		h.next = h.pool.free
		h.pool.free = h
	}
}

func (h *Handle) completeChunk() {
	if h.pending <= 0 {
		panic("armci: handle over-completed")
	}
	h.pending--
	if h.pending == 0 {
		h.done.Fire()
	}
}

// completeChunkAt completes chunk i exactly once; duplicate completions
// (a retransmitted request whose original also succeeded) are dropped.
func (h *Handle) completeChunkAt(i int) {
	if h.chunkComplete(i) {
		return
	}
	h.markChunk(i)
	h.completeChunk()
}

// failChunk records err against chunk i and counts it as complete, so the
// operation's waiter unblocks instead of wedging; Err surfaces the failure.
func (h *Handle) failChunk(i int, err error) {
	if h.chunkComplete(i) {
		return
	}
	h.markChunk(i)
	if h.err == nil {
		h.err = err
	}
	h.completeChunk()
}

// failAll fails every chunk not yet complete with err, for crash-stop
// aborts; chunks that already completed or failed are untouched.
func (h *Handle) failAll(err error) {
	for i := 0; i < h.chunks; i++ {
		h.failChunk(i, err)
	}
}

// chunkComplete reports whether chunk i has already completed or failed.
func (h *Handle) chunkComplete(i int) bool {
	if i < 0 || i >= h.chunks {
		return false
	}
	if h.doneOv != nil {
		return h.doneOv[i]
	}
	return h.doneBits&(1<<uint(i)) != 0
}

func (h *Handle) markChunk(i int) {
	if h.doneOv != nil {
		h.doneOv[i] = true
	} else {
		h.doneBits |= 1 << uint(i)
	}
}

// Err returns the first failure recorded against the operation (nil on
// success). Only faulted runs with request timeouts enabled can fail.
func (h *Handle) Err() error { return h.err }

// Done reports whether the operation has fully completed.
func (h *Handle) Done() bool { return h.done.Fired() }

// Data returns the payload of a completed get operation.
func (h *Handle) Data() []byte { return h.data }

// Old returns the pre-update value of a completed read-modify-write.
func (h *Handle) Old() int64 { return h.old }

// payloadPerChunk returns how many payload bytes fit in one request buffer
// alongside the header and nsegs segment descriptors.
func (c *Config) payloadPerChunk(nsegs int) int {
	room := c.BufSize - headerBytes - nsegs*segDescBytes
	if room < 1 {
		panic(fmt.Sprintf("armci: BufSize %d cannot carry %d segment descriptors", c.BufSize, nsegs))
	}
	return room
}

// chunkContig splits a contiguous [off, off+n) region into buffer-sized
// pieces, invoking emit with each piece's offset and length.
func (c *Config) chunkContig(off, n int, emit func(off, ln int)) int {
	if n == 0 {
		emit(off, 0)
		return 1
	}
	per := c.payloadPerChunk(0)
	chunks := 0
	for done := 0; done < n; done += per {
		ln := n - done
		if ln > per {
			ln = per
		}
		emit(off+done, ln)
		chunks++
	}
	return chunks
}

// chunkSegs packs vector segments into request-buffer-sized groups,
// splitting oversized segments at multiples of align bytes: 1 for plain
// segments, the element size for element-typed operations (accumulate) whose
// values must not straddle chunks. emit receives each group's segments along
// with their cumulative payload length and the offset into the original
// flattened payload. The group is built in *scratch, reused across flushes
// and calls (a rank pool's segs): emit must copy what it keeps.
func (c *Config) chunkSegs(segs []Seg, align int, scratch *[]Seg, emit func(group []Seg, payload, flatOff int)) int {
	chunks := 0
	group := (*scratch)[:0]
	groupBytes := 0
	flat := 0 // offset of the group's first byte in the flattened payload
	for _, s := range segs {
		if s.Len < 0 || s.Off < 0 {
			panic(fmt.Sprintf("armci: invalid segment %+v", s))
		}
		for s.Len > 0 {
			if room := (c.payloadPerChunk(len(group)+1) - groupBytes) &^ (align - 1); room > 0 {
				take := min(s.Len, room)
				group = append(group, Seg{Off: s.Off, Len: take})
				groupBytes += take
				s.Off += take
				s.Len -= take
				if groupBytes < c.payloadPerChunk(len(group)) {
					continue
				}
			}
			emit(group, groupBytes, flat)
			chunks++
			flat += groupBytes
			group, groupBytes = group[:0], 0
		}
	}
	if len(group) > 0 || chunks == 0 {
		emit(group, groupBytes, flat)
		chunks++
	}
	*scratch = group[:0]
	return chunks
}

// segsBytes sums segment lengths.
func segsBytes(segs []Seg) int {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// StridedSegs expands a strided region (count blocks of blockLen bytes,
// stride bytes apart, starting at off) into vector segments. This is how the
// runtime lowers ARMCI_PutS/GetS onto the vector path.
func StridedSegs(off, blockLen, stride, count int) []Seg {
	return appendStridedSegs(make([]Seg, 0, max(count, 0)), off, blockLen, stride, count)
}

// appendStridedSegs appends the segments of a strided region to segs.
func appendStridedSegs(segs []Seg, off, blockLen, stride, count int) []Seg {
	if blockLen < 0 || count < 0 {
		panic("armci: negative strided extent")
	}
	for i := 0; i < count; i++ {
		segs = append(segs, Seg{Off: off + i*stride, Len: blockLen})
	}
	return segs
}

// Float64 helpers for accumulate and typed access.

// PutFloat64 stores v at byte offset off of buf.
func PutFloat64(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(v))
}

// GetFloat64 loads the float64 at byte offset off of buf.
func GetFloat64(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
}

// PutInt64 stores v at byte offset off of buf.
func PutInt64(buf []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(buf[off:off+8], uint64(v))
}

// GetInt64 loads the int64 at byte offset off of buf.
func GetInt64(buf []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(buf[off : off+8]))
}

// Float64sToBytes copies vals into a fresh byte buffer.
func Float64sToBytes(vals []float64) []byte {
	return appendFloat64s(make([]byte, 0, 8*len(vals)), vals)
}

// appendFloat64s appends the little-endian encoding of vals to buf.
func appendFloat64s(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// BytesToFloat64s reinterprets buf (length divisible by 8) as float64s.
func BytesToFloat64s(buf []byte) []float64 {
	if len(buf)%8 != 0 {
		panic("armci: byte length not divisible by 8")
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = GetFloat64(buf, 8*i)
	}
	return out
}
