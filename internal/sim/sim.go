// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are cooperatively scheduled by the Engine: in serial
// mode exactly one of them (or the engine's Run loop) executes at any moment,
// and control is handed over explicitly at blocking points (Sleep, Queue.Get,
// Event.Wait, ...). A process is either a body function running on a
// coroutine carrier (carrier.go) — the runner switches to it directly, with no
// scheduler, channel or futex in between — or a step function (SpawnStepOn)
// the runner simply calls, which owns no goroutine at all.
//
// Events are ordered by the three-part key (time, seq, origin), where origin
// is the owner id of the context that created the event and seq is a
// per-origin creation counter. Because each origin's creation stream is
// independent of how other origins interleave, the key — and therefore the
// execution order — is identical whether the engine runs serially or sharded
// (see shard.go), which is the repository's bit-identical determinism
// contract (docs/PARALLELISM.md).
//
// The kernel is the substrate on which the repository models the Cray XT5
// interconnect (package fabric) and the ARMCI runtime (package armci); in
// particular its deadlock detector is what lets tests demonstrate that LDF
// forwarding is deadlock-free while naive forwarding is not.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a floating-point number of microseconds, the unit the
// paper's latency figures use.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// GlobalOwner is the pseudo-owner of engine-level events: fault schedules,
// watchdog checks, run-wide coordination. Global events always execute on
// the coordinator with every shard quiesced (a "serial instant"), so they
// may touch any owner's state.
const GlobalOwner = -1

// Event payload kinds. The hot paths of a large simulation — process
// switches, wakes, fabric hops, protocol deliveries — used to allocate one
// closure per event; kind dispatch replaces them with preallocated fields on
// the event record itself, so scheduling allocates nothing beyond amortized
// queue growth (the allocs/op contract of docs/SCALING.md).
const (
	// evFn runs a plain closure, carried in arg (the general-purpose cold
	// path).
	evFn uint8 = iota
	// evArg runs a preallocated callback with its argument. Callers pass a
	// long-lived func value (e.g. a method value stored once at setup) plus
	// a pointer-shaped arg, so neither boxes a new allocation per event.
	evArg
	// evSwitch resumes the process in arg (Sleep wake-ups, spawn starts).
	evSwitch
	// evWake is evSwitch plus clearing the process's wake-pending flag.
	evWake
)

// procState tracks the lifecycle of a simulated process.
type procState int

const (
	procNew procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process. All methods must be called from within the
// process's own body function; they are not safe to call from other
// goroutines or from engine-context callbacks.
type Proc struct {
	e  *Engine
	id int
	// name is the process's name, or with num >= 0 its prefix (see Name).
	name string
	// Exactly one of body and step is set. A body runs on the carrier co,
	// borrowed at the first resume and returned when the body exits; a step
	// function is called by the runner on every resume and returns at its
	// next wait (see SpawnStepOn).
	body  func(p *Proc)
	step  func(p *Proc)
	co    *carrier
	state procState
	// blockedOn is the static blocking-point label (cold paths); hot-path
	// primitives park with a lazy blocker+blockArg pair instead, so a park
	// formats no string unless a deadlock report or tracer reads one.
	blockedOn   string
	blockedAt   blocker
	blockArg    int64
	daemon      bool
	wakePending bool
	num         int
	// owner pins the process to a scheduling owner: its resume events carry
	// this owner, so in sharded mode the process always runs on the owner's
	// shard (or on the coordinator during serial instants).
	owner int
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return numberedName(p.name, p.num) }

// numberedName returns prefix followed by num in decimal, or prefix alone
// when num < 0. A job's per-node processes and queues (cht17, rank4095) keep
// prefix and number apart and format the name only when something reads it:
// deadlock reports, traces and panics, none of which a healthy untraced run
// makes.
func numberedName(prefix string, num int) string {
	if num < 0 {
		return prefix
	}
	return prefix + strconv.Itoa(num)
}

// Num returns the number the process was spawned with by SpawnNumberedOn or
// SpawnStepOn, or -1 when its name has none: a body shared by many
// processes finds its own instance by it.
func (p *Proc) Num() int { return p.num }

// ID returns the process's spawn-order identifier.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time in the process's context.
func (p *Proc) Now() Time { return p.e.NowOn(p.owner) }

// BlockedOn reports the label of the blocking point the process is currently
// parked at ("" if running or done). Used by the deadlock reporter.
func (p *Proc) BlockedOn() string {
	if p.blockedAt != nil {
		return p.blockedAt.blockLabel(p.blockArg)
	}
	return p.blockedOn
}

// blocker supplies a parked process's blocking-point label on demand. The
// synchronization primitives implement it so the hot paths never pay for
// fmt.Sprintf: the label is materialized only when a deadlock report, a
// scheduling tracer, or a BlockedOn caller actually asks for it.
type blocker interface {
	blockLabel(arg int64) string
}

// Engine drives a simulation. Create one with New, add processes with Spawn
// (or GoAt), then call Run.
type Engine struct {
	now    Time
	events eventQueue // the global lane; the only queue in serial mode
	// seqs holds the per-origin event-creation counters that form the seq
	// component of the ordering key; index is origin+1 so GlobalOwner maps
	// to slot 0. Distinct origins never share a slot, so shard workers
	// advance their owners' counters without contention.
	seqs  []uint64
	procs []*Proc
	// procSlab is the unused tail of the chunk spawned processes are carved
	// from (see spawnAt).
	procSlab []Proc
	// idle holds the carriers free for the serial loop and the coordinator to
	// borrow (each shard lane has its own list).
	idle []*carrier
	// ctxOwner is the owner of the event the coordinator (or serial loop) is
	// currently executing; events created from that context inherit it as
	// their origin and default placement.
	ctxOwner int
	rng      *rand.Rand
	running  bool
	tracer   Tracer
	// resumes counts process resumptions, the progress signal the Watchdog
	// samples: a simulation whose event queue stays busy without ever
	// resuming a process is livelocked, not working.
	resumes uint64
	// executed counts events popped by the run loop; the Watchdog compares
	// it with resumes to tell churn (events firing, nobody resuming) from a
	// quiet wait on a far-future event.
	executed uint64
	// halt, when set (see Halt), aborts the run loop before the next event.
	halt error
	// live counts non-daemon processes spawned and not yet exited, so a
	// drained run and the Watchdog learn whether any is left without
	// walking procs. Processes exit on their owners' shard workers, hence
	// the atomic; it changes once per process, never per event.
	live atomic.Int64

	// rngSrc wraps the RNG's source to count draws, and rngSeed remembers
	// the seed, so CheckpointSection can digest the generator's position
	// (seed, draws) without serializing its internal state.
	rngSrc  *countingSource
	rngSeed int64

	shardState
}

// countingSource wraps a rand.Source64 and counts draws. Capture needs only
// (seed, draws) to identify the generator's position: both run modes draw in
// the same deterministic order, so equal counts at a RunUntil horizon mean
// equal generator state.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

// Uint64 preserves rand.Rand's Source64 fast path, keeping the value stream
// bit-identical to an unwrapped rand.NewSource.
func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// New creates an engine with virtual time 0 and a deterministic RNG.
func New() *Engine {
	e := &Engine{
		ctxOwner: GlobalOwner,
		seqs:     make([]uint64, 1),
	}
	e.Seed(1)
	return e
}

// Seed reseeds the engine's deterministic RNG.
func (e *Engine) Seed(s int64) {
	e.rngSrc = newCountingSource(s)
	e.rngSeed = s
	e.rng = rand.New(e.rngSrc)
}

// Rand returns the engine's RNG. Using it from process bodies keeps serial
// simulations deterministic (there is only ever one runner at a time). It is
// not part of the sharded determinism contract: workloads that run with
// shards > 1 must draw randomness from per-owner sources instead.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Now returns current virtual time in coordinator context. During a sharded
// window it does not see the executing shard's clock — use NowOn (or
// Proc.Now) from owner contexts.
func (e *Engine) Now() Time { return e.now }

// NowOn returns current virtual time in owner's context: the owner's shard
// clock while a sharded window is executing, the engine clock otherwise
// (serial mode, setup, and serial instants).
func (e *Engine) NowOn(owner int) Time {
	if owner >= 0 && e.windowActive.Load() {
		return e.lanes[e.shardOf[owner]].now
	}
	return e.now
}

// ctxFor resolves the scheduling context for an event created by owner
// `from`: the shard lane executing it (nil for the coordinator or serial
// loop), that context's current time, and the origin for the ordering key.
func (e *Engine) ctxFor(from int) (*lane, Time, int) {
	if e.windowActive.Load() {
		if from < 0 {
			panic("sim: global-context scheduling from a shard worker; use AtGlobal with the owner the caller runs as")
		}
		ln := e.lanes[e.shardOf[from]]
		return ln, ln.now, ln.ctxOwner
	}
	return nil, e.now, e.ctxOwner
}

// exec dispatches one popped event by kind. It replaces direct fn() calls in
// the run loops so the hot event kinds carry no closure.
func (e *Engine) exec(p *payload) {
	switch p.kind {
	case evFn:
		p.arg.(func())()
	case evArg:
		p.afn(p.arg)
	case evSwitch:
		e.switchTo(p.arg.(*Proc))
	default: // evWake
		pr := p.arg.(*Proc)
		pr.wakePending = false
		e.switchTo(pr)
	}
}

// schedule creates a closure event at time t; it is the evFn-kind shorthand
// for scheduleEv. A func value is pointer-shaped, so storing it in arg
// allocates nothing.
func (e *Engine) schedule(src *lane, now Time, origin, owner int, t Time, fn func()) {
	e.scheduleEv(src, now, origin, owner, t, payload{kind: evFn, arg: fn})
}

// scheduleArg creates an evArg event running fn(arg) at time t.
func (e *Engine) scheduleArg(src *lane, now Time, origin, owner int, t Time, fn func(any), arg any) {
	e.scheduleEv(src, now, origin, owner, t, payload{kind: evArg, afn: fn, arg: arg})
}

// scheduleProc creates an evSwitch or evWake event resuming p at time t.
func (e *Engine) scheduleProc(src *lane, now Time, origin, owner int, t Time, kind uint8, p *Proc) {
	e.scheduleEv(src, now, origin, owner, t, payload{kind: kind, arg: p})
}

// scheduleEv stamps the event's ordering key — time t clamped to the
// creating context's now, the next seq of origin's creation stream — and
// routes it to the right queue or cross-shard outbox. src is the creating
// lane (nil = coordinator). Payload representation (closure vs kind record)
// plays no part in the key, which is what lets hot paths switch
// representations without disturbing the bit-identity contract.
func (e *Engine) scheduleEv(src *lane, now Time, origin, owner int, t Time, p payload) {
	if t < now {
		t = now
	}
	idx := origin + 1
	if idx >= len(e.seqs) {
		if e.nshards > 1 {
			panic(fmt.Sprintf("sim: origin %d outside the sharded owner space", origin))
		}
		grown := make([]uint64, idx+1)
		copy(grown, e.seqs)
		e.seqs = grown
	}
	e.seqs[idx]++
	p.owner = int32(owner)
	ev := event{eventKey{t: t, seq: e.seqs[idx], origin: int32(origin)}, p}
	var dst *lane
	if owner >= 0 && e.nshards > 1 {
		dst = e.lanes[e.shardOf[owner]]
	}
	if src == nil {
		if dst == nil {
			e.events.push(&ev)
		} else {
			dst.queue.push(&ev)
		}
		return
	}
	if dst == src {
		src.queue.push(&ev)
		return
	}
	// Leaving the creating shard: the event must clear the current lookahead
	// window, or conservative execution would already have passed its time.
	if ev.t < src.end {
		panic(fmt.Sprintf("sim: cross-shard event at t=%v violates the lookahead window ending at %v (lookahead %v too large for this workload)",
			ev.t, src.end, e.lookahead))
	}
	if dst == nil {
		src.outGlobal = append(src.outGlobal, ev)
		return
	}
	src.outCross[dst.idx] = append(src.outCross[dst.idx], ev)
}

// At schedules fn to run in engine context at absolute virtual time t.
// Scheduling in the past is clamped to now. It may be called from serial
// mode, setup, or coordinator context; shard-worker contexts must use
// AtOn/AtFrom with an explicit owner.
func (e *Engine) At(t Time, fn func()) {
	if e.windowActive.Load() {
		panic("sim: At called from a shard worker; use AtOn/AtFrom with an explicit owner")
	}
	e.schedule(nil, e.now, e.ctxOwner, e.ctxOwner, t, fn)
}

// After schedules fn to run in engine context d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtOn schedules fn at absolute time t executing as owner. The caller must
// be running as owner (or on the coordinator): it is the owner-explicit form
// of At for code that runs inside sharded windows.
func (e *Engine) AtOn(owner int, t Time, fn func()) { e.AtFrom(owner, owner, t, fn) }

// AfterOn schedules fn to run as owner d after owner's current time.
func (e *Engine) AfterOn(owner int, d Time, fn func()) {
	src, now, origin := e.ctxFor(owner)
	e.schedule(src, now, origin, owner, now+d, fn)
}

// AtFrom schedules fn at absolute time t executing as owner `to`, created
// from the context of owner `from` (which the caller must be running as).
// When from and to live on different shards the event crosses shards at the
// next window edge and t must be at least one lookahead in the future.
func (e *Engine) AtFrom(from, to int, t Time, fn func()) {
	src, now, origin := e.ctxFor(from)
	e.schedule(src, now, origin, to, t, fn)
}

// AtOnArg is AtOn without the closure: it schedules fn(arg) at absolute time
// t executing as owner. Pass a long-lived func value (typically a method
// value stored once at setup) and a pointer-shaped arg — then the event
// allocates nothing, which is why the fabric and protocol hot paths use the
// Arg forms (see docs/SCALING.md). Timing, ordering and sharding semantics
// are exactly AtOn's.
func (e *Engine) AtOnArg(owner int, t Time, fn func(any), arg any) {
	e.AtFromArg(owner, owner, t, fn, arg)
}

// AfterOnArg is AfterOn without the closure: fn(arg) runs as owner d after
// owner's current time. See AtOnArg for the allocation contract.
func (e *Engine) AfterOnArg(owner int, d Time, fn func(any), arg any) {
	src, now, origin := e.ctxFor(owner)
	e.scheduleArg(src, now, origin, owner, now+d, fn, arg)
}

// AtFromArg is AtFrom without the closure: fn(arg) runs at absolute time t
// as owner `to`, created from owner `from`'s context. See AtOnArg for the
// allocation contract and AtFrom for the cross-shard timing rule.
func (e *Engine) AtFromArg(from, to int, t Time, fn func(any), arg any) {
	src, now, origin := e.ctxFor(from)
	e.scheduleArg(src, now, origin, to, t, fn, arg)
}

// AtGlobal schedules fn on the global lane one lookahead after the caller's
// current time. Global events execute as serial instants with every shard
// quiesced, so fn may mutate state shared across owners (barrier counters,
// run-wide tallies). The fixed +lookahead delay is what lets a shard safely
// reach back to the global lane, and it is applied identically in serial
// mode so both modes agree on timing.
func (e *Engine) AtGlobal(from int, fn func()) {
	src, now, origin := e.ctxFor(from)
	e.schedule(src, now, origin, GlobalOwner, now+e.lookahead, fn)
}

// AtGlobalArg is AtGlobal for a long-lived fn and a pointer-shaped arg, so
// the call allocates no closure.
func (e *Engine) AtGlobalArg(from int, fn func(any), arg any) {
	src, now, origin := e.ctxFor(from)
	e.scheduleArg(src, now, origin, GlobalOwner, now+e.lookahead, fn, arg)
}

// Lookahead returns the conservative synchronization window configured by
// ConfigureShards (0 if never configured).
func (e *Engine) Lookahead() Time { return e.lookahead }

// Spawn creates a simulated process that starts executing body at the current
// virtual time, pinned to the creating context's owner. The returned Proc
// handle is also passed to body.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, e.now, name, -1, body, false)
}

// SpawnOn is Spawn with an explicit owner pin: the process and all events it
// creates belong to owner, so in sharded mode it runs on owner's shard.
func (e *Engine) SpawnOn(owner int, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, e.now, name, -1, body, false)
}

// SpawnNumberedOn is SpawnOn for a process named prefix followed by num in
// decimal ("rank", 7 names it rank7), formatted only when read.
func (e *Engine) SpawnNumberedOn(owner int, prefix string, num int, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, e.now, prefix, num, body, false)
}

// SpawnDaemon creates a process that does not keep the simulation alive: Run
// returns successfully even if daemon processes are still blocked (e.g.
// server loops waiting for requests that will never come).
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, e.now, name, -1, body, true)
}

// SpawnDaemonOn is SpawnDaemon with an explicit owner pin.
func (e *Engine) SpawnDaemonOn(owner int, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, e.now, name, -1, body, true)
}

// GoAt schedules a process to start at absolute time t.
func (e *Engine) GoAt(t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, t, name, -1, body, false)
}

// GoAtOn schedules a process pinned to owner to start at absolute time t.
func (e *Engine) GoAtOn(owner int, t Time, name string, body func(p *Proc)) *Proc {
	return e.spawnAt(owner, t, name, -1, body, false)
}

// SpawnStepOn creates a daemon process pinned to owner that owns no goroutine:
// the runner calls step on every resume, and step runs to its next wait and
// returns. It may wait once per call, through Sleep, Queue.Poll or Event.Poll,
// which for a step process register the wake-up and return immediately; what
// the blocking form would keep on its stack, step keeps in its own state.
// The process is named prefix followed by num in decimal, or prefix alone
// when num < 0, formatted only when read.
func (e *Engine) SpawnStepOn(owner int, prefix string, num int, step func(p *Proc)) *Proc {
	p := e.spawnAt(owner, e.now, prefix, num, nil, true)
	p.step = step
	return p
}

// ReserveSpawns tells the engine that n processes are about to be spawned at
// the current instant, as a job's start spawns one per node and one per
// rank. The process records, the process table and, in serial mode, the
// event queue's same-instant run are then each allocated once at their final
// size instead of growing by doubling, and the queue's payload slab gains
// the burst's chunks in one allocation. A sharded engine reserves no queue
// storage: which lane a spawn lands in is its owner's. Reserving changes no
// event, key or order.
func (e *Engine) ReserveSpawns(n int) {
	if n <= 0 {
		return
	}
	e.procs = slices.Grow(e.procs, n)
	if len(e.procSlab) < n {
		e.procSlab = make([]Proc, n)
	}
	if e.nshards <= 1 {
		e.events.reserve(n, e.now)
	}
}

// procChunk is the most processes one slab chunk holds.
const procChunk = 1024

// spawnAt creates a process and schedules its first resume at t. Its record
// is carved from a slab whose chunks grow with the processes spawned so far,
// from 16 up to procChunk, so a job spawning one process per rank and per
// node allocates a chunk per thousand processes, not one record each (one
// chunk in all after ReserveSpawns).
func (e *Engine) spawnAt(owner int, t Time, name string, num int, body func(p *Proc), daemon bool) *Proc {
	if e.windowActive.Load() {
		panic("sim: Spawn from a shard worker is not supported; spawn before Run or from a global event")
	}
	if len(e.procSlab) == 0 {
		e.procSlab = make([]Proc, min(max(len(e.procs), 16), procChunk))
	}
	p := &e.procSlab[0]
	e.procSlab = e.procSlab[1:]
	*p = Proc{
		e:      e,
		id:     len(e.procs),
		name:   name,
		num:    num,
		body:   body,
		state:  procNew,
		daemon: daemon,
		owner:  owner,
	}
	e.procs = append(e.procs, p)
	if !daemon {
		e.live.Add(1)
	}
	e.trace(TraceSpawn, p, "")
	e.scheduleProc(nil, e.now, e.ctxOwner, owner, t, evSwitch, p)
	return p
}

// killSignal is panicked through a process's stack to unwind it during
// Shutdown; runBody swallows it and nothing else.
type killSignal struct{}

// runBody runs p's body to completion on the calling carrier. Any other panic
// continues through the carrier into the runner that resumed p, and so out of
// Engine.Run on its caller's goroutine.
func runBody(p *Proc) {
	defer func() {
		p.exit()
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

func (p *Proc) exit() {
	if !p.daemon && p.state != procDone {
		p.e.live.Add(-1)
	}
	p.state = procDone
	p.blockedOn, p.blockedAt = "", nil
	p.e.trace(TraceExit, p, "")
}

// switchTo hands control to p and returns when p parks or finishes. It must
// be invoked from a runner context (inside an event callback): the serial
// loop, the coordinator during an instant, or the shard worker owning p.
func (e *Engine) switchTo(p *Proc) {
	if p.state == procDone || p.state == procRunning {
		return
	}
	idle := &e.idle
	if e.windowActive.Load() {
		ln := e.lanes[e.shardOf[p.owner]]
		ln.resumes++
		idle = &ln.idle
	} else {
		e.resumes++
		e.trace(TraceResume, p, "")
	}
	p.state = procRunning
	p.blockedOn, p.blockedAt = "", nil
	if p.step == nil {
		p.resumeBody(idle)
		return
	}
	p.step(p)
	if p.state == procRunning {
		panic("sim: step function of " + p.Name() + " returned without waiting")
	}
}

// park is called from process context: it returns control to the current
// runner and blocks until the process is resumed by a future switchTo. For a
// step process it only records the blocking point; the step function returns
// control itself.
func (p *Proc) park(label string) {
	p.blockedOn, p.blockedAt = label, nil
	p.parkWait(label)
}

// parkOn is park with a lazily formatted label (see blocker). With a tracer
// installed the label is still materialized at park time, so traces are
// identical either way.
func (p *Proc) parkOn(b blocker, arg int64) {
	p.blockedOn, p.blockedAt, p.blockArg = "", b, arg
	label := ""
	if p.e.tracer != nil {
		label = b.blockLabel(arg)
	}
	p.parkWait(label)
}

func (p *Proc) parkWait(traceLabel string) {
	if p.state == procBlocked {
		panic("sim: step process " + p.Name() + " waited twice in one step (blocking call from a step function?)")
	}
	p.state = procBlocked
	p.e.trace(TracePark, p, traceLabel)
	if p.step != nil {
		return
	}
	if !p.co.yield(struct{}{}) {
		panic(killSignal{}) // the carrier was stopped: Shutdown is unwinding this body
	}
	p.state = procRunning
	p.blockedOn, p.blockedAt = "", nil
}

// wake schedules the process to be resumed at the current virtual time. It
// is idempotent: a process with a wake already pending is not scheduled
// again, so primitives may over-notify safely. The wake event carries the
// process's owner, so callers must run as that owner or on the coordinator.
func (p *Proc) wake() {
	if p.wakePending || p.state == procDone {
		return
	}
	p.wakePending = true
	e := p.e
	src, now, origin := e.ctxFor(p.owner)
	e.scheduleProc(src, now, origin, p.owner, now, evWake, p)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving FIFO fairness). A
// step function must return right after calling it.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.e
	src, now, origin := e.ctxFor(p.owner)
	e.scheduleProc(src, now, origin, p.owner, now+d, evSwitch, p)
	p.parkOn(sleepLabel{}, int64(d))
}

// sleepLabel formats a sleeping process's blocking label on demand; the
// zero-size value boxes into the blocker interface without allocating.
type sleepLabel struct{}

func (sleepLabel) blockLabel(arg int64) string { return fmt.Sprintf("sleep(%v)", Time(arg)) }

// Yield gives other ready processes and events at the current instant a
// chance to run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }

// DeadlockError is returned by Run when the event queue drains while
// non-daemon processes are still blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: blocked-on" entries for stuck non-daemon procs
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v, %d blocked process(es): %s",
		d.At, len(d.Blocked), strings.Join(d.Blocked, "; "))
}

// TimeLimitError is returned by RunUntil when the horizon is reached with
// events still pending.
type TimeLimitError struct {
	Limit   Time
	Pending int
}

func (t *TimeLimitError) Error() string {
	return fmt.Sprintf("sim: time limit %v reached with %d pending event(s)", t.Limit, t.Pending)
}

// Run executes events until the queue drains. It returns nil if every
// non-daemon process finished, and a *DeadlockError otherwise.
func (e *Engine) Run() error { return e.run(-1) }

// RunUntil executes events with timestamps <= limit. If the queue drains it
// behaves like Run; otherwise it returns a *TimeLimitError with the clock at
// limit (or where it was, if already past limit). The engine is then at a
// quiescent horizon — every event at or before limit has run, no sharded
// window is open — so any layer's CheckpointSection may be read, and
// RunUntil or Run may be called again to continue (docs/CHECKPOINT.md).
func (e *Engine) RunUntil(limit Time) error { return e.run(limit) }

func (e *Engine) run(limit Time) error {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	// Every return leaves the coordinator context global, so events the
	// caller schedules between runs get the same origin in both run modes.
	defer func() { e.running, e.ctxOwner = false, GlobalOwner }()
	if e.nshards > 1 {
		return e.runSharded(limit)
	}
	for e.events.Len() > 0 {
		if e.halt != nil {
			return e.halt
		}
		if limit >= 0 && e.events.head().t > limit {
			return e.horizon(limit)
		}
		t, p := e.events.pop()
		e.now = t
		e.ctxOwner = int(p.owner)
		e.executed++
		e.exec(&p)
	}
	return e.drained()
}

// drained is the verdict of a run whose queue emptied: nil when every
// non-daemon process has finished, a *DeadlockError naming the blocked ones
// otherwise. Only a deadlock walks the process table.
func (e *Engine) drained() error {
	if e.live.Load() == 0 {
		return nil
	}
	if blocked := e.blockedNonDaemons(); len(blocked) > 0 {
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}

// horizon stops RunUntil at limit with events still pending. The clock moves
// to limit but never back: a later event may already have run.
func (e *Engine) horizon(limit Time) error {
	if limit > e.now {
		e.now = limit
	}
	return &TimeLimitError{Limit: limit, Pending: e.PendingEvents()}
}

func (e *Engine) blockedNonDaemons() []string {
	var blocked []string
	for _, p := range e.procs {
		if p.state == procBlocked && !p.daemon {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.Name(), p.BlockedOn()))
		}
	}
	sort.Strings(blocked)
	return blocked
}

// Shutdown terminates every parked or not-yet-started process, stops the
// pooled carriers and any shard workers, releasing every goroutine the engine
// holds. Call it after Run (or after abandoning a simulation) in long-lived
// programs that create many engines; the engine must not be running. A body
// parked mid-way is unwound via a recovered panic, so its deferred functions
// still execute; never-started processes and step daemons own no goroutine.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown while engine is running")
	}
	for _, p := range e.procs {
		if p.state != procBlocked && p.state != procNew {
			continue
		}
		if p.co != nil {
			p.co.stop() // parked mid-body: its yield reports false and the body unwinds
		} else {
			p.exit()
		}
	}
	stopCarriers(&e.idle)
	e.events = eventQueue{}
	for _, ln := range e.lanes {
		stopCarriers(&ln.idle)
		ln.queue = eventQueue{}
	}
	e.stopWorkers()
}

// BlockedProcs returns the names of all currently blocked non-daemon
// processes (useful after a TimeLimitError to diagnose livelock).
func (e *Engine) BlockedProcs() []string {
	return e.blockedNonDaemons()
}

// Executed returns how many events the engine has run, on the global lane
// and every shard lane. The count is the same at every shard count; in
// sharded mode it is exact at serial instants and after Run returns.
func (e *Engine) Executed() uint64 { return e.executed }

// PendingEvents returns the number of scheduled events not yet executed,
// across the global lane and every shard.
func (e *Engine) PendingEvents() int {
	n := e.events.Len()
	for _, ln := range e.lanes {
		n += ln.queue.Len()
	}
	return n
}

// Halt requests that the run loop stop before executing its next event (or,
// sharded, before dispatching the next window) and return err from
// Run/RunUntil. It is how the Watchdog aborts a wedged simulation: the
// engine state stays consistent, so Shutdown still works. Calling it outside
// a run (or with nil) is harmless.
func (e *Engine) Halt(err error) { e.halt = err }

// liveNonDaemons counts non-daemon processes that have not finished.
func (e *Engine) liveNonDaemons() int { return int(e.live.Load()) }

// BlockedDaemons returns the blocking points of all parked daemon processes,
// for diagnosing deadlocks that thread through server loops (e.g. CHTs
// waiting on downstream buffer credits).
func (e *Engine) BlockedDaemons() []string {
	var out []string
	for _, p := range e.procs {
		if p.state == procBlocked && p.daemon {
			out = append(out, fmt.Sprintf("%s: %s", p.Name(), p.BlockedOn()))
		}
	}
	sort.Strings(out)
	return out
}
