package sim

import (
	"sort"

	"armcivt/internal/ckpt"
)

// CheckpointSection digests the kernel's state between runs (after Run, or at
// a RunUntil horizon) into a byte-comparable section: per-origin seq
// counters, progress counters, the full pending-event set in key order,
// process lifecycle state, and the RNG position (seed, draws). Two runs of
// the same workload are at the same kernel state iff the sections compare
// equal byte-for-byte. The clock stays out of the digest: the horizon a
// section is read at already names it.
func (e *Engine) CheckpointSection() []byte {
	var enc ckpt.Enc

	enc.Str("seqs")
	enc.U32(uint32(len(e.seqs)))
	h := ckpt.MixInit
	for _, s := range e.seqs {
		h = ckpt.Mix(h, s)
	}
	enc.U64(h)

	enc.Str("counters")
	enc.U64(e.executed)
	enc.U64(e.resumes)

	// Pending events, sorted by the determinism-contract key so the digest
	// does not depend on the queue's internal layout. Payloads
	// (closures/args) are not hashable, but at equal keys with equal seq
	// streams they are the same events.
	pending := e.events.appendPending(make([]event, 0, e.PendingEvents()))
	sort.Slice(pending, func(i, j int) bool { return pending[i].less(pending[j].eventKey) })
	enc.Str("events")
	enc.U32(uint32(len(pending)))
	h = ckpt.MixInit
	for i := range pending {
		ev := &pending[i]
		h = ckpt.Mix(h, uint64(ev.t))
		h = ckpt.Mix(h, ev.seq)
		h = ckpt.Mix(h, uint64(uint32(ev.origin)))
		h = ckpt.Mix(h, uint64(uint32(ev.owner)))
		h = ckpt.Mix(h, uint64(ev.kind))
	}
	enc.U64(h)

	// A process parked on a stub without its record digests as blocked, one
	// not holding a record as not waiting for a wake-up.
	enc.Str("procs")
	enc.U32(uint32(len(e.state)))
	h = ckpt.MixInit
	e.eachProc(func(b *burst, id int, st procState, p *Proc) {
		if st == procStubbed {
			st = procBlocked
		}
		h = ckpt.Mix(h, uint64(id))
		h = ckpt.Mix(h, uint64(st))
		h = ckpt.Mix(h, uint64(uint32(int32(b.owner(id-b.id0)))))
		var flags uint64
		if b.daemon {
			flags |= 1
		}
		if p != nil && p.wakePending {
			flags |= 2
		}
		h = ckpt.Mix(h, flags)
	})
	enc.U64(h)

	enc.Str("rng")
	enc.I64(e.rngSeed)
	enc.U64(e.rngSrc.draws)

	return enc.Bytes()
}
