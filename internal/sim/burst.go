package sim

import (
	"slices"
	"sort"
)

// burst is n processes spawned by one call: a job's CHTs, its ranks, or a
// single process (a burst of one). It holds what its members share and what
// their ids determine — name prefix, number, owner, daemon flag, body — so
// the engine keeps no per-process record for a member that is not running
// or parked (see Proc), and the event queue holds the whole burst as one
// entry whose key is its next member's start key.
type burst struct {
	e *Engine
	// id0 is member 0's process id and seq0 the seq of its start key
	// (t, seq0, origin); member i has id id0+i and key (t, seq0+i, origin).
	id0  int
	seq0 uint64
	n    int32
	// Member i is numbered num0+i (-1: unnumbered, a burst of one) and
	// owned by owner0 + i/perOwner.
	num0     int32
	owner0   int32
	perOwner int32
	daemon   bool
	prefix   string
	// Exactly one of body and step is set. A body runs on a carrier; a step
	// function is called by the runner on every resume and returns at its
	// next wait (see SpawnStepOn).
	body, step func(p *Proc)
	// stub is the QueueStub this burst's members park on without a record
	// (see QueueStub.Park), set by the first that does.
	stub *QueueStub
}

// num returns the number of the member with process id id, -1 if unnumbered.
func (b *burst) num(id int) int {
	if b.num0 < 0 {
		return -1
	}
	return int(b.num0) + id - b.id0
}

// name returns the name of the member with process id id.
func (b *burst) name(id int) string { return numberedName(b.prefix, b.num(id)) }

// owner returns member i's scheduling owner.
func (b *burst) owner(i int) int { return int(b.owner0) + i/int(b.perOwner) }

// burstChunk is the most bursts one slab chunk holds, procChunk the most
// process records.
const (
	burstChunk = 256
	procChunk  = 1024
)

// newBurst carves a burst of n members from the engine's slab, in chunks
// that grow with the bursts carved so far, from 16 up to burstChunk.
func (e *Engine) newBurst(n, owner0, perOwner int, prefix string, num0 int) *burst {
	if len(e.burstSlab) == 0 {
		e.burstSlab = make([]burst, min(max(len(e.bursts), 16), burstChunk))
	}
	b := &e.burstSlab[0]
	e.burstSlab = e.burstSlab[1:]
	*b = burst{e: e, n: int32(n), num0: int32(num0), owner0: int32(owner0), perOwner: int32(perOwner), prefix: prefix}
	return b
}

// spawnBurst gives b's members the next ids, traces their spawns in order
// and files the burst's start at t, clamped to now, under n seqs of the
// calling context's origin. It returns member 0's id.
func (e *Engine) spawnBurst(b *burst, t Time) int {
	n := int(b.n)
	if n <= 0 || b.perOwner <= 0 {
		panic("sim: a spawn burst needs n > 0 members and perOwner > 0")
	}
	b.id0 = len(e.state)
	if e.bursts == nil {
		e.bursts = make([]*burst, 0, 4)
	}
	e.bursts = append(e.bursts, b)
	// The state bytes grow to twice what they need, so a job's second
	// burst (its ranks, after its CHTs) fits without a copy.
	if cap(e.state)-len(e.state) < n {
		e.state = append(make([]procState, 0, 2*(len(e.state)+n)), e.state...)
	}
	e.state = e.state[:len(e.state)+n]
	if !b.daemon {
		e.live += n
	}
	if e.tracer != nil {
		for id := b.id0; id < b.id0+n; id++ {
			e.traceName(TraceSpawn, b.name(id), "")
		}
	}
	k := e.nextKey(t, n)
	b.seq0 = k.seq
	e.events.putBurst(k, b)
	return b.id0
}

// start runs the burst member with process id id, owned by owner, for the
// first time, on a record carved for it now.
func (e *Engine) start(b *burst, id, owner int) {
	if e.state[id] != procNew {
		return
	}
	p := e.carveProc(b, id, owner)
	p.state = procNew
	e.switchTo(p)
}

// carveProc returns a record for the process with id id, owned by owner,
// taken from the free list or, when that is empty, carved from a chunk four
// times the last one's size, from 16 up to procChunk. A record's gen
// survives reuse, so an event scheduled for an earlier holder never
// matches it. A free record holds nothing but its engine, gen and free-list
// link (see release), so carving writes only what differs.
func (e *Engine) carveProc(b *burst, id, owner int) *Proc {
	p := e.free
	if p != nil {
		e.free, p.next = p.next, nil
	} else {
		last := len(e.recs) - 1
		if last < 0 || len(e.recs[last]) == cap(e.recs[last]) {
			size := 16
			if last >= 0 {
				size = min(4*cap(e.recs[last]), procChunk)
			} else {
				e.recs = make([][]Proc, 0, 8)
			}
			e.recs = append(e.recs, make([]Proc, 0, size))
			last++
		}
		e.recs[last] = e.recs[last][:len(e.recs[last])+1]
		p = &e.recs[last][len(e.recs[last])-1]
		p.e = e
	}
	p.b, p.id, p.owner = b, int32(id), int32(owner)
	e.state[id] = procLive
	return p
}

// release returns p's record to the free list, once its caller has set
// the process's state byte and checked that nothing can reach the record
// any more: the process has exited with no wake pending, or parked on a
// stub, which holds no reference. The gen
// bump is what makes any resume event that still named the record fail
// checkGen instead of resuming the record's next holder. A body's carrier
// is already returned and an exit has cleared the blocking point.
func (e *Engine) release(p *Proc) {
	p.b, p.blockedOn, p.blockedAt, p.blockArg = nil, "", nil, 0
	p.gen++
	p.next, e.free = e.free, p
}

// stubbed returns the record of step process p, just parked on stub s: the
// engine keeps the process as a procStubbed state byte, and Proc rebuilds
// the record when a queue is to adopt it. A burst's members share one stub;
// a member parking on another keeps its record.
func (e *Engine) stubbed(p *Proc, s *QueueStub) {
	b := p.b
	if b.stub == nil {
		b.stub = s
	}
	if b.stub != s || p.wakePending {
		return
	}
	e.state[p.id] = procStubbed
	e.release(p)
}

// LiveRecords counts the process records in use: the processes running or
// parked anywhere but on a QueueStub. It is a footprint probe that walks
// the records carved.
func (e *Engine) LiveRecords() int {
	n := 0
	for _, c := range e.recs {
		for i := range c {
			if c[i].b != nil {
				n++
			}
		}
	}
	return n
}

// burstOf returns the burst that spawned process id.
func (e *Engine) burstOf(id int) *burst {
	i := sort.Search(len(e.bursts), func(i int) bool { return e.bursts[i].id0 > id })
	return e.bursts[i-1]
}

// Proc returns the record of the process whose identifier is id (see
// Proc.ID), or nil while it has none: before its first resume and after it
// exits. A process parked on a QueueStub gets its record back, rebuilt
// exactly as it parked, which is how a queue built later adopts it
// (Queue.Adopt). Processes spawned together have consecutive ids, so a
// caller that spawned a burst finds any member from the first. Finding a
// running or parked process's record walks the records in use: Proc is for
// cold paths.
func (e *Engine) Proc(id int) *Proc {
	switch e.state[id] {
	case procNew, procDone:
		return nil
	case procStubbed:
		b := e.burstOf(id)
		p := e.carveProc(b, id, b.owner(id-b.id0))
		p.state, p.blockedAt, p.blockArg = procBlocked, b.stub, int64(b.num(id))
		return p
	}
	for _, c := range e.recs {
		for i := range c {
			if p := &c[i]; p.b != nil && int(p.id) == id {
				return p
			}
		}
	}
	return nil
}

// eachProc calls fn for every process in id order with its burst, state and
// record (nil when it holds none: then the state is the engine's byte, one
// of procNew, procStubbed and procDone). It is the cold walk of digests,
// deadlock reports and Shutdown.
func (e *Engine) eachProc(fn func(b *burst, id int, st procState, p *Proc)) {
	live := make([]*Proc, 0, e.LiveRecords())
	for _, c := range e.recs {
		for i := range c {
			if p := &c[i]; p.b != nil {
				live = append(live, p)
			}
		}
	}
	slices.SortFunc(live, func(a, b *Proc) int { return int(a.id - b.id) })
	for _, b := range e.bursts {
		for id := b.id0; id < b.id0+int(b.n); id++ {
			if e.state[id] != procLive {
				fn(b, id, e.state[id], nil)
				continue
			}
			p := live[0]
			live = live[1:]
			fn(b, id, p.state, p)
		}
	}
}
