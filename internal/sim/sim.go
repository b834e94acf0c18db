// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are cooperatively scheduled by the Engine: exactly one
// of them (or the engine's Run loop) executes at any moment, and control is handed over explicitly at blocking points (Sleep, Queue.Get,
// Event.Wait, ...). A process is either a body function running on a
// coroutine carrier (carrier.go) — the runner switches to it directly, with no
// scheduler, channel or futex in between — or a step function (SpawnStepOn)
// the runner simply calls, which owns no goroutine at all.
//
// Events are ordered by the three-part key (time, seq, origin), where origin
// is the owner id of the context that created the event and seq is a
// per-origin creation counter. The key fixes the execution order, so a run is
// a function of its inputs alone: a rerun, a run resumed from a RunUntil
// horizon and a run in one of many parallel sweep workers are bit-identical
// (docs/ARCHITECTURE.md, "The determinism contract").
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
// watchdog checks, run-wide coordination.
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
	// this owner, which becomes the origin of the events it creates.
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
func (p *Proc) Now() Time { return p.e.now }

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
	events eventQueue
	// seqs holds the per-origin event-creation counters that form the seq
	// component of the ordering key; index is origin+1 so GlobalOwner maps
	// to slot 0.
	seqs  []uint64
	procs []*Proc
	// procSlab is the unused tail of the chunk spawned processes are carved
	// from (see spawnAt).
	procSlab []Proc
	// idle holds the carriers free for the run loop to borrow.
	idle []*carrier
	// ctxOwner is the owner of the event the run loop is currently
	// executing; events created from that context inherit it as their
	// origin and default placement.
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
	// walking procs.
	live int
	// globalDelay is the fixed delay AtGlobal adds (see ConfigureOwners).
	globalDelay Time

	// rngSrc wraps the RNG's source to count draws, and rngSeed remembers
	// the seed, so CheckpointSection can digest the generator's position
	// (seed, draws) without serializing its internal state.
	rngSrc  *countingSource
	rngSeed int64
}

// countingSource is the engine's generator, counting draws. Capture needs
// only (seed, draws) to identify the generator's position: runs draw in the
// same deterministic order, so equal counts at a RunUntil horizon mean equal
// generator state. The generator is NewSource's, so
// seeding an engine (New seeds 1, and harnesses reseed) costs nothing.
type countingSource struct {
	src   lazySource
	draws uint64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

// Uint64 preserves rand.Rand's Source64 fast path, keeping the value stream
// bit-identical to math/rand.NewSource.
func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

func newCountingSource(seed int64) *countingSource {
	c := new(countingSource)
	c.src.Seed(seed)
	return c
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

// Rand returns the engine's RNG. Process bodies and event callbacks draw
// from it in event-key order (only one runs at a time), so every run of a
// seeded engine draws the same stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// exec dispatches one popped event by kind. It replaces direct fn() calls in
// the run loop so the hot event kinds carry no closure.
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

// scheduleEv files an event at time t, clamped to now, executing as owner.
// Its ordering key takes the running event's owner as origin and the next
// seq of that origin's creation stream. Payload representation (closure vs
// kind record) plays no part in the key, which is what lets hot paths switch
// representations without disturbing the bit-identity contract. A func
// value is pointer-shaped, so an evFn event storing one in arg allocates
// nothing.
func (e *Engine) scheduleEv(owner int, t Time, kind uint8, afn func(any), arg any) {
	if t < e.now {
		t = e.now
	}
	idx := e.ctxOwner + 1
	if idx >= len(e.seqs) {
		grown := make([]uint64, idx+1)
		copy(grown, e.seqs)
		e.seqs = grown
	}
	e.seqs[idx]++
	e.events.put(eventKey{t: t, seq: e.seqs[idx], origin: int32(e.ctxOwner)}, int32(owner), kind, afn, arg)
}

// At schedules fn to run in engine context at absolute virtual time t, as
// the running event's owner. Scheduling in the past is clamped to now.
func (e *Engine) At(t Time, fn func()) { e.scheduleEv(e.ctxOwner, t, evFn, nil, fn) }

// After schedules fn to run in engine context d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtOn schedules fn at absolute time t executing as owner: events fn
// creates take owner as their origin.
func (e *Engine) AtOn(owner int, t Time, fn func()) { e.scheduleEv(owner, t, evFn, nil, fn) }

// AfterOn schedules fn to run as owner d after the current time.
func (e *Engine) AfterOn(owner int, d Time, fn func()) { e.AtOn(owner, e.now+d, fn) }

// AtOnArg is AtOn without the closure: it schedules fn(arg) at absolute time
// t executing as owner. Pass a long-lived func value (typically a method
// value stored once at setup) and a pointer-shaped arg — then the event
// allocates nothing, which is why the fabric and protocol hot paths use the
// Arg forms (see docs/SCALING.md). Timing and ordering are exactly AtOn's.
func (e *Engine) AtOnArg(owner int, t Time, fn func(any), arg any) {
	e.scheduleEv(owner, t, evArg, fn, arg)
}

// AfterOnArg is AfterOn without the closure: fn(arg) runs as owner d after
// the current time. See AtOnArg for the allocation contract.
func (e *Engine) AfterOnArg(owner int, d Time, fn func(any), arg any) {
	e.AtOnArg(owner, e.now+d, fn, arg)
}

// AtGlobal schedules fn as GlobalOwner one global delay (ConfigureOwners)
// after the current time, for state shared across owners: barrier counters,
// run-wide tallies. The fixed delay is part of every such event's key.
func (e *Engine) AtGlobal(fn func()) { e.AtOn(GlobalOwner, e.now+e.globalDelay, fn) }

// AtGlobalArg is AtGlobal for a long-lived fn and a pointer-shaped arg, so
// the call allocates no closure.
func (e *Engine) AtGlobalArg(fn func(any), arg any) {
	e.AtOnArg(GlobalOwner, e.now+e.globalDelay, fn, arg)
}

// ConfigureOwners sizes the per-origin seq counters for owners [0, owners)
// in one allocation, instead of one growth copy per new origin, and sets the
// delay AtGlobal adds (for the fabric, one link hop latency). Call it before
// Run.
func (e *Engine) ConfigureOwners(owners int, globalDelay Time) {
	if e.running {
		panic("sim: ConfigureOwners while engine is running")
	}
	e.globalDelay = globalDelay
	if grown := owners + 1; grown > len(e.seqs) {
		s := make([]uint64, grown)
		copy(s, e.seqs)
		e.seqs = s
	}
}

// Spawn creates a simulated process that starts executing body at the current
// virtual time, pinned to the creating context's owner. The returned Proc
// handle is also passed to body.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.ctxOwner, e.now, name, -1, body, false)
}

// SpawnOn is Spawn with an explicit owner pin: the process and all events it
// creates belong to owner.
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
// rank. The process records, the process table and the event queue's
// same-instant run are then each allocated once at their final size instead
// of growing by doubling, and the queue's payload slab gains the burst's
// chunks in one allocation. Reserving changes no event, key or order.
func (e *Engine) ReserveSpawns(n int) {
	if n <= 0 {
		return
	}
	e.procs = slices.Grow(e.procs, n)
	if len(e.procSlab) < n {
		e.procSlab = make([]Proc, n)
	}
	e.events.reserve(n, e.now)
}

// procChunk is the most processes one slab chunk holds.
const procChunk = 1024

// spawnAt creates a process and schedules its first resume at t. Its record
// is carved from a slab whose chunks grow with the processes spawned so far,
// from 16 up to procChunk, so a job spawning one process per rank and per
// node allocates a chunk per thousand processes, not one record each (one
// chunk in all after ReserveSpawns).
func (e *Engine) spawnAt(owner int, t Time, name string, num int, body func(p *Proc), daemon bool) *Proc {
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
		e.live++
	}
	e.trace(TraceSpawn, p, "")
	e.scheduleEv(owner, t, evSwitch, nil, p)
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
		p.e.live--
	}
	p.state = procDone
	p.blockedOn, p.blockedAt = "", nil
	p.e.trace(TraceExit, p, "")
}

// switchTo hands control to p and returns when p parks or finishes. It must
// be invoked from the run loop (inside an event callback).
func (e *Engine) switchTo(p *Proc) {
	if p.state == procDone || p.state == procRunning {
		return
	}
	e.resumes++
	e.trace(TraceResume, p, "")
	p.state = procRunning
	p.blockedOn, p.blockedAt = "", nil
	if p.step == nil {
		p.resumeBody()
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
// process's owner.
func (p *Proc) wake() {
	if p.wakePending || p.state == procDone {
		return
	}
	p.wakePending = true
	p.e.scheduleEv(p.owner, p.e.now, evWake, nil, p)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving FIFO fairness). A
// step function must return right after calling it.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.scheduleEv(p.owner, p.e.now+d, evSwitch, nil, p)
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
// quiescent horizon — every event at or before limit has run — so any layer's CheckpointSection may be read, and
// RunUntil or Run may be called again to continue (docs/CHECKPOINT.md).
func (e *Engine) RunUntil(limit Time) error { return e.run(limit) }

func (e *Engine) run(limit Time) error {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	// Every return leaves the context global, so events the caller
	// schedules between runs get the same origin however the run was cut.
	defer func() { e.running, e.ctxOwner = false, GlobalOwner }()
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
	if e.live == 0 {
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

// Shutdown terminates every parked or not-yet-started process and stops the
// pooled carriers, releasing every goroutine the engine holds. Call it after Run (or after abandoning a simulation) in long-lived
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
	for _, c := range e.idle {
		c.stop()
	}
	e.idle = nil
	e.events = eventQueue{}
}

// BlockedProcs returns the names of all currently blocked non-daemon
// processes (useful after a TimeLimitError to diagnose livelock).
func (e *Engine) BlockedProcs() []string {
	return e.blockedNonDaemons()
}

// Executed returns how many events the engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// PendingEvents returns the number of scheduled events not yet executed.
func (e *Engine) PendingEvents() int { return e.events.Len() }

// Halt requests that the run loop stop before executing its next event and
// return err from Run/RunUntil. It is how the Watchdog aborts a wedged simulation: the
// engine state stays consistent, so Shutdown still works. Calling it outside
// a run (or with nil) is harmless.
func (e *Engine) Halt(err error) { e.halt = err }

// liveNonDaemons counts non-daemon processes that have not finished.
func (e *Engine) liveNonDaemons() int { return e.live }

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
