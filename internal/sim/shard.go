package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Conservative parallel execution (sharding).
//
// ConfigureShards partitions the owner space into K shards, each with its own
// event queue and worker goroutine. The coordinator repeatedly:
//
//  1. Finds T = min(next event time) across the global lane and all shards.
//  2. If the global lane holds an event at T, runs a *serial instant*: every
//     event at exactly T (global and shard-owned alike) executes on the
//     coordinator in (time, seq, origin) key order, with all workers
//     quiesced. Global events may therefore touch any owner's state.
//  3. Otherwise dispatches the window [T, min(T+lookahead, Tglobal)):
//     workers execute their shard's events concurrently, strictly below the
//     window edge. Events a worker creates for another shard (or for the
//     global lane) go to per-shard outboxes and are merged at the barrier;
//     conservative correctness requires their timestamps to clear the
//     window, which schedule() asserts.
//
// Because a window never extends past the next global event and cross-shard
// event creation is bounded below by the lookahead (the minimum fabric link
// latency), each shard observes exactly the event sequence it would in a
// serial run, and the (time, seq, origin) key makes the merge order — hence
// every simulation result — bit-identical to shards=1.

// maxTime is the sentinel "no pending event" timestamp.
const maxTime = Time(math.MaxInt64)

// lane is one shard's execution context: a private event queue, clock, and
// carrier free list, plus outboxes for events leaving the shard. Only its
// worker goroutine touches these fields during a window; the coordinator
// touches them only while the worker is quiesced.
type lane struct {
	e   *Engine
	idx int
	// queue holds the shard's pending events.
	queue eventQueue
	// now is the shard-local clock: the timestamp of the event being
	// executed (NowOn reads it from owner context).
	now Time
	// end is the current window's exclusive upper edge, the bound cross-
	// shard creations are asserted against.
	end Time
	// ctxOwner is the owner of the event currently executing on this lane.
	ctxOwner int
	// idle holds the carriers free for this lane's worker to borrow.
	idle []*carrier
	// dispatch carries the window edge from the coordinator to the worker.
	dispatch chan Time
	// outCross[d] buffers events created on this lane for shard d.
	outCross [][]event
	// outGlobal buffers events created on this lane for the global lane.
	outGlobal []event
	// resumes/executed are folded into the engine totals at each barrier.
	resumes  uint64
	executed uint64
	// panicked carries a panic out of the worker to the coordinator, which
	// re-raises it from Run at the barrier.
	panicked any
}

// shardState is the engine's sharding extension, embedded in Engine.
type shardState struct {
	// lookahead is the conservative window width: the minimum virtual-time
	// gap of any cross-shard event creation (the fabric's minimum link
	// latency). Also stored in serial mode so AtGlobal timing is
	// mode-independent.
	lookahead Time
	// nshards is the number of shards (<=1 means serial).
	nshards int
	// shardOf maps owner id -> shard index.
	shardOf []int32
	lanes   []*lane
	// windowActive is true exactly while shard workers may be executing; it
	// discriminates coordinator context from shard-worker context in the
	// scheduling APIs (the coordinator never runs during a window).
	windowActive atomic.Bool
	laneDone     chan *lane
	workersUp    bool
	shardStats   ShardStats
}

// ShardStats reports how a sharded run spent its time, for the
// sim_shards/sim_windows_total/sim_serial_instants_total metrics and the
// shard-utilization report.
type ShardStats struct {
	// Shards is the configured shard count (0 when serial).
	Shards int
	// Windows counts dispatched lookahead windows.
	Windows uint64
	// Instants counts serial instants (global-event timestamps executed
	// with all shards quiesced).
	Instants uint64
	// IdleLaneWindows counts (window, shard) pairs where the shard had no
	// event inside the window — the window-stall signal: high values mean
	// the lookahead is too narrow or the partition too unbalanced for the
	// workload.
	IdleLaneWindows uint64
	// LaneEvents is the number of events each shard's worker executed.
	LaneEvents []uint64
}

// ConfigureShards partitions the owner space [0, owners) into `shards`
// shards via shardOf and arms conservative-parallel execution with the given
// lookahead (the minimum virtual-time gap of any cross-shard event
// creation; for the fabric, its minimum link hop latency).
//
// With shards == 1 only the lookahead is recorded (AtGlobal uses it in both
// modes, keeping serial and sharded timing identical) and execution stays
// serial. It must be called before Run, at most once, and is incompatible
// with a scheduling tracer.
func (e *Engine) ConfigureShards(shards, owners int, shardOf func(owner int) int, lookahead Time) {
	if e.running {
		panic("sim: ConfigureShards while engine is running")
	}
	if e.nshards > 1 {
		panic("sim: ConfigureShards called twice")
	}
	if shards < 1 {
		panic("sim: ConfigureShards with shards < 1")
	}
	if owners < 1 {
		panic("sim: ConfigureShards with owners < 1")
	}
	e.lookahead = lookahead
	if grown := owners + 1; grown > len(e.seqs) {
		s := make([]uint64, grown)
		copy(s, e.seqs)
		e.seqs = s
	}
	if shards == 1 {
		return
	}
	if e.tracer != nil {
		panic("sim: scheduling tracer requires a serial engine (shards=1)")
	}
	if lookahead <= 0 {
		panic("sim: sharded execution requires a positive lookahead")
	}
	if shards > owners {
		shards = owners
	}
	e.nshards = shards
	e.shardOf = make([]int32, owners)
	for o := range e.shardOf {
		s := shardOf(o)
		if s < 0 || s >= shards {
			panic(fmt.Sprintf("sim: shardOf(%d) = %d outside [0,%d)", o, s, shards))
		}
		e.shardOf[o] = int32(s)
	}
	e.lanes = make([]*lane, shards)
	for i := range e.lanes {
		e.lanes[i] = &lane{
			e:        e,
			idx:      i,
			ctxOwner: GlobalOwner,
			dispatch: make(chan Time),
			outCross: make([][]event, shards),
		}
	}
	e.laneDone = make(chan *lane)
	e.shardStats.Shards = shards
	e.shardStats.LaneEvents = make([]uint64, shards)
}

// Shards returns the configured shard count (1 when serial).
func (e *Engine) Shards() int {
	if e.nshards > 1 {
		return e.nshards
	}
	return 1
}

// ShardReport returns a copy of the sharding counters (zero-valued in serial
// mode).
func (e *Engine) ShardReport() ShardStats {
	st := e.shardStats
	st.LaneEvents = append([]uint64(nil), st.LaneEvents...)
	return st
}

func (e *Engine) startWorkers() {
	if e.workersUp {
		return
	}
	e.workersUp = true
	for _, ln := range e.lanes {
		go ln.work()
	}
}

func (e *Engine) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.workersUp = false
	for _, ln := range e.lanes {
		close(ln.dispatch)
	}
}

// work is a shard worker: it drains the shard's queue strictly below each
// dispatched window edge, then reports back to the coordinator.
func (ln *lane) work() {
	for end := range ln.dispatch {
		ln.runTo(end)
		ln.e.laneDone <- ln
	}
}

// runTo executes the lane's events below end. A panic (a process body's, say)
// is handed to the coordinator instead of killing the program from here.
func (ln *lane) runTo(end Time) {
	defer func() {
		ln.ctxOwner = GlobalOwner
		ln.panicked = recover()
	}()
	for ln.queue.Len() > 0 && ln.queue.head().t < end {
		t, p := ln.queue.pop()
		ln.now = t
		ln.ctxOwner = int(p.owner)
		ln.executed++
		ln.e.exec(&p)
	}
}

// nextTimes returns the earliest pending timestamps on the global lane and
// across all shards.
func (e *Engine) nextTimes() (tGlobal, tMin Time) {
	tGlobal = maxTime
	if e.events.Len() > 0 {
		tGlobal = e.events.head().t
	}
	tMin = tGlobal
	for _, ln := range e.lanes {
		if ln.queue.Len() > 0 && ln.queue.head().t < tMin {
			tMin = ln.queue.head().t
		}
	}
	return tGlobal, tMin
}

func (e *Engine) runSharded(limit Time) error {
	e.startWorkers()
	for {
		if e.halt != nil {
			return e.halt
		}
		tGlobal, t := e.nextTimes()
		if t == maxTime {
			break
		}
		if limit >= 0 && t > limit {
			return e.horizon(limit)
		}
		if tGlobal == t {
			e.runInstant(t)
			continue
		}
		end := t + e.lookahead
		if tGlobal < end {
			end = tGlobal
		}
		if limit >= 0 && end > limit+1 {
			end = limit + 1
		}
		e.runWindow(end)
	}
	return e.drained()
}

// runInstant executes every event at exactly time t — global and shard-owned
// alike, including ones created during the instant — on the coordinator in
// key order, with all workers quiesced. This is what lets global events
// mutate cross-owner state with serial semantics.
func (e *Engine) runInstant(t Time) {
	e.now = t
	e.shardStats.Instants++
	for e.halt == nil {
		var h *eventQueue
		if e.events.Len() > 0 && e.events.head().t == t {
			h = &e.events
		}
		for _, ln := range e.lanes {
			if ln.queue.Len() > 0 && ln.queue.head().t == t &&
				(h == nil || ln.queue.head().less(h.head())) {
				h = &ln.queue
			}
		}
		if h == nil {
			break
		}
		_, p := h.pop()
		e.ctxOwner = int(p.owner)
		e.executed++
		e.exec(&p)
		e.ctxOwner = GlobalOwner
	}
	for _, ln := range e.lanes {
		if ln.now < t {
			ln.now = t
		}
	}
}

// runWindow dispatches the window ending at `end` to every shard with work
// inside it, waits for all of them, then merges outboxes and folds counters.
func (e *Engine) runWindow(end Time) {
	e.shardStats.Windows++
	e.windowActive.Store(true)
	dispatched := 0
	for _, ln := range e.lanes {
		if ln.queue.Len() > 0 && ln.queue.head().t < end {
			ln.end = end
			dispatched++
			ln.dispatch <- end
		} else {
			e.shardStats.IdleLaneWindows++
		}
	}
	for i := 0; i < dispatched; i++ {
		<-e.laneDone
	}
	e.windowActive.Store(false)
	for _, ln := range e.lanes {
		if r := ln.panicked; r != nil {
			panic(r)
		}
		e.resumes += ln.resumes
		ln.resumes = 0
		e.executed += ln.executed
		e.shardStats.LaneEvents[ln.idx] += ln.executed
		ln.executed = 0
		if ln.now > e.now {
			e.now = ln.now
		}
	}
	for _, ln := range e.lanes {
		for i := range ln.outGlobal {
			e.events.push(&ln.outGlobal[i])
		}
		ln.outGlobal = ln.outGlobal[:0]
		for d, evs := range ln.outCross {
			for i := range evs {
				e.lanes[d].queue.push(&evs[i])
			}
			ln.outCross[d] = evs[:0]
		}
	}
}
