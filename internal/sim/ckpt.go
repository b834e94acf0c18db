package sim

import (
	"sort"

	"armcivt/internal/ckpt"
)

// ConfigureCheckpoints arms periodic checkpoint callbacks: fn fires in
// coordinator context at every virtual-time boundary k*every (k >= 1) the run
// passes, at the first moment the next pending event's time exceeds the
// boundary. That moment is quiescent by construction — every event at or
// before the boundary has executed, no sharded window is open, outboxes are
// empty — so fn may read any layer's state consistently. In sharded mode
// lookahead windows are additionally clamped so they never span an unfired
// boundary.
//
// The callback is passive: it must not schedule events, spawn processes, or
// draw from the engine RNG (it may call Halt). Under that contract an armed
// run is bit-identical to an unarmed one, which is what lets tests compare
// two runs' layer digests boundary by boundary (docs/CHECKPOINT.md).
//
// When several boundaries fall inside one event gap, fn fires once, at the
// latest boundary passed. Must be called before Run.
func (e *Engine) ConfigureCheckpoints(every Time, fn func(at Time, index int64)) {
	if e.running {
		panic("sim: ConfigureCheckpoints while engine is running")
	}
	if every <= 0 {
		panic("sim: checkpoint interval must be positive")
	}
	if fn == nil {
		panic("sim: nil checkpoint callback")
	}
	e.ckEvery = every
	e.ckNext = 1
	e.ckFn = fn
}

// fireCheckpoints fires the checkpoint callback if advancing to tNext (the
// next event time, or limit+1 when the horizon cuts first) crosses one or
// more unfired boundaries. Strictly-greater semantics: events at exactly the
// boundary run before the capture, in both serial and sharded mode.
func (e *Engine) fireCheckpoints(tNext Time) {
	if e.ckFn == nil || tNext <= 0 {
		return
	}
	kMax := (int64(tNext) - 1) / int64(e.ckEvery)
	if kMax < e.ckNext {
		return
	}
	at := Time(kMax * int64(e.ckEvery))
	prevOwner := e.ctxOwner
	e.ctxOwner = GlobalOwner
	if e.now < at {
		e.now = at
	}
	e.ckFn(at, kMax)
	e.ctxOwner = prevOwner
	e.ckNext = kMax + 1
}

// CheckpointSection digests the kernel's state at a quiescent boundary into a
// byte-comparable section: per-origin seq counters, progress counters, the
// full pending-event set in key order, process lifecycle state, and the RNG
// position (seed, draws). Two runs of the same workload are at the same
// kernel state iff the sections compare equal byte-for-byte — regardless of
// shard count, which is why lane clocks and e.now stay out of the digest
// (they are window bookkeeping, not simulation state).
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

	// Pending events across the global lane and every shard lane, sorted by
	// the determinism-contract key so serial and sharded runs digest the same
	// byte stream. Payloads (closures/args) are not hashable, but at equal
	// keys with equal seq streams they are the same events.
	pending := e.events.appendPending(make([]event, 0, e.PendingEvents()))
	for _, ln := range e.lanes {
		pending = ln.queue.appendPending(pending)
	}
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

	enc.Str("procs")
	enc.U32(uint32(len(e.procs)))
	h = ckpt.MixInit
	for _, p := range e.procs {
		h = ckpt.Mix(h, uint64(p.id))
		h = ckpt.Mix(h, uint64(p.state))
		h = ckpt.Mix(h, uint64(uint32(int32(p.owner))))
		var flags uint64
		if p.daemon {
			flags |= 1
		}
		if p.wakePending {
			flags |= 2
		}
		h = ckpt.Mix(h, flags)
	}
	enc.U64(h)

	enc.Str("rng")
	enc.I64(e.rngSeed)
	enc.U64(e.rngSrc.draws)

	return enc.Bytes()
}
