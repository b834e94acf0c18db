package armci

import (
	"fmt"
	"sort"
	"sync"

	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// Runtime is one simulated ARMCI job: Nodes x PPN processes, a CHT per node,
// request-buffer credit pools per virtual-topology edge, and a physical
// torus underneath.
type Runtime struct {
	cfg  Config
	eng  *sim.Engine
	topo core.Topology
	net  *fabric.Network
	// nodes and ranks are value slices: per-node and per-rank hot state lives
	// in two contiguous index-addressed arrays instead of N heap objects, so
	// a 64k-node job costs two allocations here, not 128k, and neighboring
	// nodes share cache lines. Pointers into the slices (taken freely — the
	// slices are never reallocated after New) stay valid for the runtime's
	// lifetime.
	nodes []nodeState
	ranks []Rank
	// egArena backs every node's egress state in one contiguous slab, laid
	// out node-major: node n's out-edges occupy egArena[nodes[n].egBase:]
	// in sorted-neighbor order (see nodeState.nbrs).
	egArena []egress

	allocs map[string]*allocation
	// allocsMu guards the allocs map: Malloc may be called concurrently from
	// rank processes on different shards. Allocation contents need no lock —
	// each rank's partition is only touched from its node's owner context.
	allocsMu sync.RWMutex

	barrier barrierState
	mutexes []mutexState
	world   []int // all ranks, the member list of world collectives

	// nstats holds one Stats block per node: every counter is incremented
	// only from its node's owner context (rank process, CHT, or an event
	// pinned to the node), so sharded workers never contend and runs stay
	// bit-identical. Stats() merges the blocks.
	nstats []Stats
	// obs is the observability side-car (nil unless Config.Metrics or
	// Config.Trace is set); see obs.go and docs/OBSERVABILITY.md.
	obs *obsState
	// faultInj mirrors Config.Faults (nil when fault injection is off).
	faultInj *faults.Injector

	// healArmed is true when Config.Heal.Enabled is set AND the fault
	// schedule contains node: faults — the only condition under which the
	// membership monitors and self-healing run (see membership.go).
	healArmed bool
	// overloadArmed mirrors Config.Overload.Enabled: the admission, pacing
	// and shedding paths (overload.go) run only when it is set, keeping
	// unprotected runs bit-identical.
	overloadArmed bool
	// liveRanks counts rank processes still executing their body; the
	// membership monitors stop re-arming when it reaches zero so the event
	// queue can drain (the same termination rule sim.Watchdog uses).
	liveRanks int

	// Preallocated event/delivery trampolines, bound once in New so the hot
	// protocol paths schedule pooled records through fabric.SendArg and the
	// engine's *Arg variants without allocating a closure per message.
	enqueueFn   func(arg any, ce bool) // request arrives at its next hop's CHT
	ackFn       func(arg any, ce bool) // credit ack arrives back at the sender
	respFn      func(arg any, ce bool) // response arrives at the origin node
	respLocalFn func(arg any)          // same-node response (no heard/onAck)
	probeFn     func(arg any, ce bool) // heartbeat probe arrives at a neighbor
	noticeFn    func(arg any, ce bool) // membership notice arrives at a neighbor
	timeoutFn   func(arg any)          // a request's timeout timer fires at its origin
	tickFn      func(arg any)          // a node's failure-detector round (arg: *nodeState)
}

// Stats aggregates runtime-level counters used by tests and reports.
type Stats struct {
	Ops           uint64 // one-sided operations issued
	Requests      uint64 // request messages injected (after chunking)
	Forwards      uint64 // requests forwarded by intermediate CHTs
	LocalOps      uint64 // same-node fast-path operations
	CreditWaits   uint64 // times a sender or CHT blocked on buffer credits
	CreditWaited  sim.Time
	MaxCHTBacklog int // worst CHT queue depth observed

	// Resilience counters (all zero unless faults/timeouts are enabled).
	Timeouts     uint64 // request chunks whose timeout fired
	Retries      uint64 // retransmissions issued
	Failures     uint64 // chunks failed (retries exhausted or no route)
	CreditRegens uint64 // credits regenerated after presumed ack loss
	Reroutes     uint64 // forwards detoured around a stalled CHT
	DupDrops     uint64 // duplicate requests deduplicated at the target
	NoRoutes     uint64 // forwards with no egress edge for the next hop

	// Aggregation and adaptive-credit counters (zero unless Config.Agg or
	// Config.Adaptive is enabled).
	AggBatches    uint64 // multi-op batch packets injected (counted per hop)
	AggBatchedOps uint64 // sub-operations those packets carried
	CreditShifts  uint64 // buffers shifted between in-edges by adaptive credits

	// Membership and healing counters (all zero unless Config.Heal armed a
	// run whose fault schedule contains node: faults; see membership.go).
	Suspicions       uint64   // neighbor transitions alive -> suspected
	Confirms         uint64   // neighbor transitions suspected -> confirmed dead
	Rejoins          uint64   // confirmed-dead neighbors heard from again
	HealReplays      uint64   // parked sends replayed via a replacement forwarder
	HealFails        uint64   // parked sends failed for want of a live route
	CreditWriteOffs  uint64   // credits written off against confirmed-dead edges
	StaleAcks        uint64   // credit acks swallowed after a crash/heal cycle
	NodeAborts       uint64   // chunks aborted at a crashed origin or toward a dead target
	MaxDetectLatency sim.Time // worst crash -> confirmation latency observed
	MaxNotifyLatency sim.Time // worst crash -> death-notice receipt latency observed
	Probes           uint64   // heartbeat probes sent (one per line per period)
	Notices          uint64   // membership notices sent (deaths, rejoins, dead-set hand-overs)

	// Completions counts request chunks completed at their origin by a
	// response (remote ops; always counted). With ShedOps it is the goodput
	// signal Runtime.GoodputSample feeds the watchdog collapse detector.
	Completions uint64

	// Overload-protection counters (zero unless Config.Overload.Enabled);
	// together they are the per-origin shed ledger. See docs/OVERLOAD.md.
	Admitted     uint64   // ops admitted past overload admission control
	ShedOps      uint64   // ops rejected with *OverloadError (sum of the three below)
	ShedBudget   uint64   // ... because the pending-op budget was exhausted
	ShedDeadline uint64   // ... because pacing delay would overrun the op deadline
	ShedClass    uint64   // ... because their priority class hit the ladder's shed rung
	PaceWaits    uint64   // injections delayed by the AIMD pacer
	PaceWaited   sim.Time // total virtual time spent in pacing delays
	PaceBackoffs uint64   // multiplicative gap increases (CE-marked responses)
	PaceSlams    uint64   // gap jumps straight to PaceCeil (SlamRTT exceeded)
	CEAcks       uint64   // CE-marked responses observed at this origin
}

type nodeState struct {
	id    int
	rt    *Runtime
	inbox *sim.Queue[*request]
	// nbrs lists this node's virtual-topology neighbors in sorted order. It
	// is the index space for every per-edge array below: neighbor nbrs[i]
	// owns egress slot rt.egArena[egBase+i], pending count pendingBySrc[i],
	// and (with adaptive credits) inCap[i]/lastShift[i]. Lookup is a binary
	// search (nbrIdx) — degree is logarithmic on the scalable topologies, so
	// the search beats a per-node map in both bytes and cycles.
	nbrs []int
	// egBase is the index of this node's first egress in rt.egArena.
	egBase int
	// pendingBySrc counts buffered requests per upstream neighbor (indexed
	// like nbrs), driving the CHT poll-cost model; pendingSrcs is the number
	// of distinct neighbors with a nonzero count (the CHT polls one buffer
	// set per connected peer).
	pendingBySrc []int32
	pendingSrcs  int
	// cur is the request the CHT holds between steps (see chtStep): in
	// service since curStart for curSvc, or, with curSvc < 0, waiting out an
	// injected stall.
	cur      *request
	curStart sim.Time
	curSvc   sim.Time
	// rids deduplicates retransmitted requests at the target (allocated
	// only when request timeouts are enabled). Entries survive the node's
	// own crash/recovery: a rebooted node keeping its dedup table is the
	// stable-storage simplification that preserves at-most-once apply for
	// requests retried across the outage.
	rids map[uint64]dupState
	// mv is this node's membership view of its virtual-topology neighbors
	// and its rings over their lines (nil unless healing is armed); see
	// membership.go.
	mv *memberView
	// ridSeq issues this node's request ids for timeout dedup; combined with
	// the node id (see armTimeout) the result is runtime-unique without any
	// cross-node counter.
	ridSeq uint64
	// notifies is this node's notify-wait state, keyed by consuming rank.
	// Both delivery and waiting run in this node's owner context (see
	// notify.go), so no lock is needed.
	notifies *notifyState

	// Adaptive credit state (allocated only with Config.Adaptive.Enabled):
	// the node's current buffer capacity per in-edge and the last shift
	// instant per in-edge for cooldown, both indexed like nbrs (sum of
	// inCap is invariant).
	inCap     []int
	lastShift []sim.Time

	// pacers holds this node's AIMD injection pacer per destination node
	// (allocated only with Config.Overload.Enabled; see overload.go). Both
	// updates (response arrivals) and reads (rank admission) run in this
	// node's owner context. It stays a map: pacers are keyed by final
	// destination, not by edge, and most pairs never talk.
	pacers map[int]*pacer

	// Free lists (owner-context discipline: every take and put runs in this
	// node's owner context, so no lock is needed and sharded runs stay
	// deterministic). psFree recycles pendingSend records parked on this
	// node's egresses; reqFree recycles request records originated by this
	// node's ranks (see getReq and Runtime.release).
	psFree  []*pendingSend
	reqFree []*request
}

// nbrIdx returns the index of peer in ns.nbrs (the per-edge array index for
// every flattened per-neighbor structure), or -1 when peer is not a neighbor.
func (ns *nodeState) nbrIdx(peer int) int {
	lo, hi := 0, len(ns.nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns.nbrs[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns.nbrs) && ns.nbrs[lo] == peer {
		return lo
	}
	return -1
}

// egAt returns the egress toward neighbor ns.nbrs[i].
func (ns *nodeState) egAt(i int) *egress { return &ns.rt.egArena[ns.egBase+i] }

// neverShifted marks an in-edge that has never shifted a credit: far enough
// in the past that no cooldown window can cover it (a zero Time would make
// every edge look freshly shifted at simulation start).
const neverShifted = sim.Time(-1) << 40

// dupState is what the target remembers about a request id: whether it has
// responded, and the rmw old value it must re-send for a lost response.
// Stored by value in nodeState.rids — an entry is 16 bytes in the map, not a
// separate heap object per deduplicated request.
type dupState struct {
	responded bool
	old       int64
}

type allocation struct {
	name  string
	bytes int
	mem   [][]byte // per rank; slabs materialize lazily (see slab)
}

// slab returns rank's backing slab, materializing it on first touch. Alloc
// registers only the index table: a 64k-rank job whose workload addresses a
// handful of ranks pays for a handful of slabs, not 64k (the collective
// scratch region alone would otherwise dominate the entire live footprint).
// Each rank's slab is only ever touched from its node's owner context — the
// same discipline that makes allocation contents lock-free — so lazy
// materialization is race-free under sharding.
func (a *allocation) slab(rank int) []byte {
	s := a.mem[rank]
	if s == nil {
		s = make([]byte, a.bytes)
		a.mem[rank] = s
	}
	return s
}

// barrierState counts arrivals of the current world barrier. It is mutated
// only from global events (serial instants — see Rank.Barrier), so sharded
// ranks never touch it concurrently.
type barrierState struct {
	arrived int
	// gates holds one per-arrival event; the last arrival fires them all.
	gates []*sim.Event
}

type mutexState struct {
	held    bool
	owner   int        // rank holding the mutex
	waiters []*request // queued lock requests, FIFO
}

// New creates a runtime from cfg (zero fields defaulted).
func New(eng *sim.Engine, cfg Config) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// The injector is shared with the physical layer: link faults act on
	// the fabric, CHT faults on the runtime, one schedule drives both.
	cfg.Fabric.Faults = cfg.Faults
	rt := &Runtime{
		cfg:      cfg,
		eng:      eng,
		topo:     cfg.Topology,
		net:      fabric.New(eng, cfg.Nodes, cfg.Fabric),
		allocs:   map[string]*allocation{},
		faultInj: cfg.Faults,
	}
	rt.overloadArmed = cfg.Overload.Enabled
	cfg.Faults.Instrument(cfg.Metrics, cfg.Trace, cfg.TracePID)
	// Arm the kernel's conservative-parallel mode (a no-op beyond recording
	// the lookahead when Shards <= 1): node ids are the scheduling owners,
	// partitioned into contiguous torus slabs so LDF traffic stays mostly
	// shard-local, with the minimum link latency as the lookahead window.
	// The owner space is the fabric's full torus capacity, not just the
	// node count: messages traverse intermediate torus positions, and each
	// hop's event is owned by the position whose link it reserves.
	eng.ConfigureShards(cfg.Shards, rt.net.Capacity(), rt.net.ShardOf(cfg.Shards), rt.net.Lookahead())
	rt.nstats = make([]Stats, cfg.Nodes)
	rt.mutexes = make([]mutexState, cfg.Mutexes)
	for m := range rt.mutexes {
		rt.mutexes[m].owner = -1
	}
	// Per-node state is flattened into three contiguous arenas (nodes, the
	// neighbor-id backing array, and egArena) plus one neighbor scan. The
	// sorted neighbor list doubles as the index space for every per-edge
	// array, so the maps a 64k-node job would otherwise hold per node
	// (egress, pending counts, adaptive capacities) collapse into slices.
	rt.nodes = make([]nodeState, cfg.Nodes)
	poolCap := cfg.PPN * cfg.BufsPerProc
	edges := 0
	degrees := make([]int, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		degrees[n] = rt.topo.Degree(n)
		edges += degrees[n]
	}
	nbrArena := make([]int, edges)
	rt.egArena = make([]egress, edges)
	pendArena := make([]int32, edges)
	var capArena []int
	var shiftArena []sim.Time
	if cfg.Adaptive.Enabled {
		capArena = make([]int, edges)
		shiftArena = make([]sim.Time, edges)
	}
	base := 0
	for n := 0; n < cfg.Nodes; n++ {
		ns := &rt.nodes[n]
		deg := degrees[n]
		nbrs := nbrArena[base : base : base+deg]
		nbrs = append(nbrs, rt.topo.Neighbors(n)...)
		sort.Ints(nbrs)
		*ns = nodeState{
			id:           n,
			rt:           rt,
			inbox:        sim.NewQueue[*request](eng, fmt.Sprintf("cht%d", n)),
			nbrs:         nbrs,
			egBase:       base,
			pendingBySrc: pendArena[base : base+deg : base+deg],
		}
		for i, peer := range nbrs {
			rt.egArena[base+i] = egress{rt: rt, from: n, to: peer, credits: poolCap, capacity: poolCap}
		}
		if cfg.RequestTimeout > 0 {
			ns.rids = map[uint64]dupState{}
		}
		if cfg.Overload.Enabled {
			ns.pacers = map[int]*pacer{}
		}
		if cfg.Adaptive.Enabled {
			ns.inCap = capArena[base : base+deg : base+deg]
			ns.lastShift = shiftArena[base : base+deg : base+deg]
			for i := range ns.inCap {
				ns.inCap[i] = poolCap
				ns.lastShift[i] = neverShifted
			}
		}
		base += deg
	}
	rt.ranks = make([]Rank, cfg.Nodes*cfg.PPN)
	rt.world = make([]int, len(rt.ranks))
	for r := range rt.ranks {
		rt.ranks[r] = Rank{rt: rt, rank: r, node: r / cfg.PPN}
		rt.world[r] = r
	}
	rt.bindDispatch()
	// Crash-stop semantics arm whenever the schedule contains node faults;
	// membership + healing additionally require Heal.Enabled, so runs
	// without node faults (and heal-off ablations) are bit-identical.
	if cfg.Faults.HasNodeFaults() {
		rt.healArmed = cfg.Heal.Enabled
		if rt.healArmed {
			rt.newMemberViews()
		}
		cfg.Faults.OnNodeChange(rt.onNodeChange)
	}
	rt.collInit()
	if cfg.Metrics != nil || cfg.Trace != nil {
		rt.obs = newObsState(rt)
	}
	return rt, nil
}

// bindDispatch builds the runtime's preallocated delivery trampolines. Each
// replaces a closure the hot path used to allocate per message: the record in
// flight (request or egress) is the argument, and the trampoline reconstructs
// the delivery context from its fields.
func (rt *Runtime) bindDispatch() {
	// Request delivery at its next hop: the CE mark picked up on any hop of
	// the walk sticks to the request and rides it to the target, where the
	// response echoes it to the origin (respond). With CongestionThreshold
	// unset nothing ever marks.
	rt.enqueueFn = func(arg any, ce bool) {
		req := arg.(*request)
		if ce {
			req.ce = true
		}
		rt.nodes[req.nextNode].enqueue(req)
	}
	// Credit ack back at the sender: the egress record itself travels as the
	// argument. The ack doubles as a membership heartbeat at the receiver
	// (heard is a no-op unless healing is armed).
	rt.ackFn = func(arg any, ce bool) {
		eg := arg.(*egress)
		rt.nodes[eg.from].heard(eg.to)
		eg.release()
	}
	// Heartbeat probe over the edge eg.from -> eg.to (see monitorTick).
	rt.probeFn = func(arg any, ce bool) {
		eg := arg.(*egress)
		rt.nodes[eg.to].heard(eg.from)
	}
	// Membership notice (see announce): rare, so the record is allocated.
	rt.noticeFn = func(arg any, ce bool) {
		n := arg.(*notice)
		rt.nodes[n.to].onNotice(n)
	}
	// Response arrival at the origin node: completion bookkeeping plus the
	// congestion echo into the origin's pacer (see respond).
	rt.respFn = func(arg any, ce bool) {
		req := arg.(*request)
		origin := req.originNode
		rt.nodes[origin].heard(req.respFrom)
		rt.nodes[origin].onAck(req.respFrom, req.ce || ce, req.issued)
		rt.completeResp(req)
	}
	// Same-node response through shared memory: no heartbeat, no pacer echo
	// (local traffic never crosses the fabric).
	rt.respLocalFn = func(arg any) {
		rt.completeResp(arg.(*request))
	}
	// Timers: a request's timeout (the record carries its current timeout,
	// see armTimeout) and a node's heartbeat round.
	rt.timeoutFn = func(arg any) { rt.onTimeout(arg.(*request)) }
	rt.tickFn = func(arg any) { arg.(*nodeState).monitorTick() }
}

// completeResp applies one response at the origin: get payloads are copied
// into the handle's buffer at the chunk's flat offset, rmw carries the old
// value, and the response's hold on the request record is released.
func (rt *Runtime) completeResp(req *request) {
	h, chunk := req.h, req.chunk
	if !h.chunkComplete(chunk) { // duplicate or raced response: idempotent
		if req.respData != nil {
			copy(h.data[req.flatOff:req.flatOff+len(req.respData)], req.respData)
		}
		if req.kind == opRmw || req.kind == opSwap {
			h.old = req.respOld
		}
		rt.st(req.originNode).Completions++
		h.completeChunkAt(chunk)
	}
	rt.release(req)
}

// getReq returns a request record for an operation originated on node,
// recycled from the node's free list when it has one. The record starts
// with one hold, its response's (see release). Call sites must assign every
// field they rely on: a recycled record is zeroed at release, but the
// compiler cannot check a field-assignment block the way it checks a
// composite literal.
func (rt *Runtime) getReq(node int) *request {
	ns := &rt.nodes[node]
	if n := len(ns.reqFree); n > 0 {
		req := ns.reqFree[n-1]
		ns.reqFree[n-1] = nil
		ns.reqFree = ns.reqFree[:n-1]
		req.freed, req.holds = false, 1
		return req
	}
	return &request{holds: 1}
}

// release drops one hold on req. Every party that can still reach a record
// after it leaves the issuing rank holds it: the response that will complete
// it (taken in getReq, dropped by completeResp) and, with request timeouts
// on, its timer (taken in armTimeout, dropped when the timer stops
// re-arming). Whoever lets go last returns the record to its origin's free
// list; both run in the origin's owner context. A record whose response
// never arrives — dropped by the fabric, stranded in a crashed node's inbox
// or egress queue, deduplicated at the target, aborted before injection,
// failed back by a CHT — keeps its response hold and is left to the garbage
// collector: nothing that can still observe it ever sees it recycled.
func (rt *Runtime) release(req *request) {
	if req.holds <= 0 {
		panic("armci: request record released twice")
	}
	if req.holds--; req.holds == 0 {
		rt.nodes[req.originNode].putReq(req)
	}
}

// putReq recycles req into this node's free list. The record is zeroed
// except for the segs and buf backing arrays, which are retained for the
// next vectored operation or owned payload. Releasing a record twice panics:
// an aliased free would hand two in-flight operations the same storage.
func (ns *nodeState) putReq(req *request) {
	if req.freed {
		panic("armci: request record released twice")
	}
	segs, buf := req.segs[:0], req.buf[:0]
	*req = request{segs: segs, buf: buf, freed: true}
	ns.reqFree = append(ns.reqFree, req)
}

// getPS returns a pendingSend record for a send parked on one of this node's
// egresses, recycled from the node's free list.
func (ns *nodeState) getPS() *pendingSend {
	if n := len(ns.psFree); n > 0 {
		ps := ns.psFree[n-1]
		ns.psFree[n-1] = nil
		ns.psFree = ns.psFree[:n-1]
		ps.freed = false
		return ps
	}
	return &pendingSend{}
}

// putPS recycles ps into this node's free list, zeroed. Releasing a record
// twice panics. Records with a parked gate waiter are never released here —
// the waiting rank releases its own record after Gate.Wait returns (see
// egress.submitRank), which is what keeps recycling safe: a record is only
// zeroed once nothing can still observe it.
func (ns *nodeState) putPS(ps *pendingSend) {
	if ps.freed {
		panic("armci: pendingSend record released twice")
	}
	*ps = pendingSend{freed: true}
	ns.psFree = append(ns.psFree, ps)
}

// worldMembers returns the member list of world collectives (all ranks).
func (rt *Runtime) worldMembers() []int { return rt.world }

// MustNew is New but panics on error.
func MustNew(eng *sim.Engine, cfg Config) *Runtime {
	rt, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Topology returns the virtual topology in use.
func (rt *Runtime) Topology() core.Topology { return rt.topo }

// Network returns the physical network model.
func (rt *Runtime) Network() *fabric.Network { return rt.net }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// NRanks returns the total process count (Nodes * PPN).
func (rt *Runtime) NRanks() int { return len(rt.ranks) }

// st returns the stats block counters for node should be charged to. Every
// call site runs in node's owner context, which is what keeps the blocks
// contention-free (and deterministic) under sharded execution.
func (rt *Runtime) st(node int) *Stats { return &rt.nstats[node] }

// Stats merges the per-node counter blocks into runtime totals. Call it from
// coordinator context (between runs or after Run), not from rank bodies.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for i := range rt.nstats {
		n := &rt.nstats[i]
		s.Ops += n.Ops
		s.Requests += n.Requests
		s.Forwards += n.Forwards
		s.LocalOps += n.LocalOps
		s.CreditWaits += n.CreditWaits
		s.CreditWaited += n.CreditWaited
		s.Timeouts += n.Timeouts
		s.Retries += n.Retries
		s.Failures += n.Failures
		s.CreditRegens += n.CreditRegens
		s.Reroutes += n.Reroutes
		s.DupDrops += n.DupDrops
		s.NoRoutes += n.NoRoutes
		s.AggBatches += n.AggBatches
		s.AggBatchedOps += n.AggBatchedOps
		s.CreditShifts += n.CreditShifts
		s.Suspicions += n.Suspicions
		s.Confirms += n.Confirms
		s.Rejoins += n.Rejoins
		s.HealReplays += n.HealReplays
		s.HealFails += n.HealFails
		s.CreditWriteOffs += n.CreditWriteOffs
		s.StaleAcks += n.StaleAcks
		s.NodeAborts += n.NodeAborts
		s.Probes += n.Probes
		s.Notices += n.Notices
		s.Completions += n.Completions
		s.Admitted += n.Admitted
		s.ShedOps += n.ShedOps
		s.ShedBudget += n.ShedBudget
		s.ShedDeadline += n.ShedDeadline
		s.ShedClass += n.ShedClass
		s.PaceWaits += n.PaceWaits
		s.PaceWaited += n.PaceWaited
		s.PaceBackoffs += n.PaceBackoffs
		s.PaceSlams += n.PaceSlams
		s.CEAcks += n.CEAcks
		if n.MaxDetectLatency > s.MaxDetectLatency {
			s.MaxDetectLatency = n.MaxDetectLatency
		}
		if n.MaxNotifyLatency > s.MaxNotifyLatency {
			s.MaxNotifyLatency = n.MaxNotifyLatency
		}
		if n.MaxCHTBacklog > s.MaxCHTBacklog {
			s.MaxCHTBacklog = n.MaxCHTBacklog
		}
	}
	for i := range rt.nodes {
		if m := rt.nodes[i].inbox.MaxLen(); m > s.MaxCHTBacklog {
			s.MaxCHTBacklog = m
		}
	}
	return s
}

// GoodputSample returns the monotonic totals of completed and shed
// operations across all origins — the sample function sim.Watchdog.SetGoodput
// expects. It must be called from serial/coordinator context (the watchdog's
// check event qualifies): it reads every node's stats block.
func (rt *Runtime) GoodputSample() (completed, shed uint64) {
	for i := range rt.nstats {
		completed += rt.nstats[i].Completions
		shed += rt.nstats[i].ShedOps
	}
	return completed, shed
}

// Alloc registers a global allocation: every rank gets bytes of remotely
// addressable memory under the given name. It is idempotent for identical
// sizes and panics on conflicting re-registration.
func (rt *Runtime) Alloc(name string, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("armci: Alloc(%q) with negative size", name))
	}
	rt.allocsMu.Lock()
	defer rt.allocsMu.Unlock()
	if a, ok := rt.allocs[name]; ok {
		if a.bytes != bytes {
			panic(fmt.Sprintf("armci: Alloc(%q) size conflict: %d vs %d", name, a.bytes, bytes))
		}
		return
	}
	// Only the index table is allocated here; each rank's slab materializes
	// on first touch (see allocation.slab), so registering an allocation on a
	// 64k-rank job does not by itself cost 64k slabs.
	rt.allocs[name] = &allocation{name: name, bytes: bytes, mem: make([][]byte, len(rt.ranks))}
}

// Memory returns rank's local slice of the named allocation (direct access,
// as a process would touch its own partition of the global address space).
func (rt *Runtime) Memory(rank int, name string) []byte {
	return rt.alloc(name).slab(rank)
}

func (rt *Runtime) alloc(name string) *allocation {
	rt.allocsMu.RLock()
	a, ok := rt.allocs[name]
	rt.allocsMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("armci: unknown allocation %q", name))
	}
	return a
}

// Run spawns one CHT daemon per node and one process per rank executing
// body, then drives the simulation to completion. The error is non-nil on
// deadlock (e.g. with a broken forwarding rule); a watchdog trip comes back
// as a *StallError naming the edges whose sends were waiting for credits.
func (rt *Runtime) Run(body func(r *Rank)) error {
	rt.Start(body)
	err := rt.eng.Run()
	we, ok := err.(*sim.WatchdogError)
	if !ok {
		return err
	}
	stall := &StallError{WatchdogError: we}
	for i := range rt.egArena {
		if eg := &rt.egArena[i]; len(eg.pending) > 0 {
			stall.Edges = append(stall.Edges, StalledEdge{eg.from, eg.to, eg.credits, eg.capacity, len(eg.pending)})
		}
	}
	return stall
}

// Shutdown releases the goroutines the engine holds (still-blocked ranks and
// pooled carriers; CHT daemons own none). Call after Run in programs that
// create many runtimes.
func (rt *Runtime) Shutdown() { rt.eng.Shutdown() }

// Start spawns CHTs and rank processes without running the engine, for
// callers that schedule additional activity or use RunUntil.
func (rt *Runtime) Start(body func(r *Rank)) {
	// Every process and recurring event is pinned to its node's scheduling
	// owner, so in sharded mode all of a node's activity runs on one shard.
	for i := range rt.nodes {
		ns := &rt.nodes[i]
		rt.eng.SpawnStepOn(ns.id, fmt.Sprintf("cht%d", ns.id), ns.chtStep)
	}
	rt.liveRanks = len(rt.ranks)
	for i := range rt.ranks {
		r := &rt.ranks[i]
		r.proc = rt.eng.SpawnOn(r.node, fmt.Sprintf("rank%d", r.rank), func(p *sim.Proc) {
			body(r)
			// Aggregated operations still buffered when the body returns
			// would otherwise never be injected.
			r.flushAllAgg()
			// liveRanks is shared across nodes, so the decrement must land
			// on the global lane (a serial instant).
			rt.eng.AtGlobal(r.node, func() { rt.liveRanks-- })
		})
	}
	if rt.healArmed {
		for i := range rt.nodes {
			ns := &rt.nodes[i]
			rt.eng.AfterOnArg(ns.id, heartbeatInterval, rt.tickFn, ns)
		}
	}
}

// MasterRSS models the resident set size of a node's master process: base
// footprint plus the CHT's request buffers and per-connection metadata for
// every remote process reachable over a direct edge. This is the quantity
// Figure 5 of the paper plots.
func (rt *Runtime) MasterRSS(node int) int64 {
	return MasterRSSFor(rt.cfg, rt.topo, node)
}

// MasterRSSFor computes the memory model without instantiating a runtime,
// for memory-scaling sweeps over very large configurations. cfg zero fields
// are defaulted; an invalid configuration panics.
func MasterRSSFor(cfg Config, topo core.Topology, node int) int64 {
	cfg.Topology = topo
	c, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	deg := int64(topo.Degree(node))
	remoteProcs := deg * int64(c.PPN)
	buffers := remoteProcs * int64(c.BufsPerProc) * int64(c.BufSize)
	conn := remoteProcs * c.ConnBytes
	return c.BaseRSSBytes + buffers + conn
}

// BufferBytes returns just the request-buffer memory on a node, the
// topology-dependent term of MasterRSS.
func (rt *Runtime) BufferBytes(node int) int64 {
	return int64(rt.topo.Degree(node)) * int64(rt.cfg.PPN) * int64(rt.cfg.BufsPerProc) * int64(rt.cfg.BufSize)
}

// nextHop resolves the forwarding rule in effect (LDF unless overridden).
// When fault injection is on and the preferred intermediate's CHT is
// stalled, it detours through the next admissible LDF hop — a different
// dimension correction, so the D <= M bound of partially populated
// topologies still holds (the same-dimension "detour" would route straight
// back through the stalled node).
func (rt *Runtime) nextHop(src, dst int) int {
	if rt.cfg.RouteOverride != nil {
		return rt.cfg.RouteOverride(src, dst)
	}
	next := rt.topo.NextHop(src, dst)
	if next != dst && next != src && rt.hopAvoided(src, next) {
		for _, alt := range core.AdmissibleHops(rt.topo, src, dst) {
			if alt != next && !rt.hopAvoided(src, alt) {
				rt.st(src).Reroutes++
				return alt
			}
		}
	}
	return next
}

// hopAvoided reports whether src should not forward through node: its CHT is
// stalled by an injected fault, or src's membership view has confirmed it
// dead. Fault-free runs always answer false, keeping routing bit-identical.
func (rt *Runtime) hopAvoided(src, node int) bool {
	if fi := rt.faultInj; fi != nil && fi.CHTStalled(node) {
		return true
	}
	return rt.healArmed && rt.nodes[src].isDead(node)
}

// egressTo returns node's egress over the direct edge to peer.
func (rt *Runtime) egressTo(node, peer int) *egress {
	ns := &rt.nodes[node]
	i := ns.nbrIdx(peer)
	if i < 0 {
		panic(fmt.Sprintf("armci: no edge %d->%d in %v", node, peer, rt.topo))
	}
	return ns.egAt(i)
}

// egressFor is egressTo with a typed error instead of a panic, for the CHT
// forward path: a request routed onto a non-edge must fail back to its
// origin, not crash the simulation or vanish.
func (rt *Runtime) egressFor(node, peer int) (*egress, error) {
	if peer >= 0 && peer < len(rt.nodes) {
		ns := &rt.nodes[node]
		if i := ns.nbrIdx(peer); i >= 0 {
			return ns.egAt(i), nil
		}
	}
	return nil, &NoRouteError{From: node, To: peer}
}

// returnCredit sends an ack from node back to peer releasing one buffer
// credit for the peer->node edge; the pooled delivery trampoline (ackFn)
// carries the egress record itself, so no per-ack closure is allocated.
func (rt *Runtime) returnCredit(node, peer int) {
	rt.net.SendArg(node, peer, ackBytes, rt.ackFn, rt.egressTo(peer, node))
}

// CheckCreditInvariants verifies the buffer-accounting invariants the
// protocol maintains through faults, healing, aggregation and adaptive
// shifting: every egress holds 0 <= credits <= capacity with non-negative
// debts, and every adaptive node's in-edge capacities sum to degree *
// (PPN * BufsPerProc) with each at least 1 (the LDF liveness floor). The
// chaos harness and property tests call it after every run.
func (rt *Runtime) CheckCreditInvariants() error {
	poolCap := rt.cfg.PPN * rt.cfg.BufsPerProc
	for n := range rt.nodes {
		ns := &rt.nodes[n]
		for i, peer := range ns.nbrs {
			eg := ns.egAt(i)
			if eg.credits < 0 || eg.credits > eg.capacity {
				return fmt.Errorf("armci: egress %d->%d credits %d outside [0,%d]",
					ns.id, peer, eg.credits, eg.capacity)
			}
			if eg.revokeDebt < 0 || eg.regenDebt < 0 {
				return fmt.Errorf("armci: egress %d->%d negative debt (revoke=%d, regen=%d)",
					ns.id, peer, eg.revokeDebt, eg.regenDebt)
			}
		}
		if ns.inCap != nil {
			total := 0
			for i, c := range ns.inCap {
				if c < 1 {
					return fmt.Errorf("armci: node %d in-edge %d capacity %d below floor 1",
						ns.id, ns.nbrs[i], c)
				}
				total += c
			}
			if want := len(ns.nbrs) * poolCap; total != want {
				return fmt.Errorf("armci: node %d in-edge capacities sum to %d, want %d",
					ns.id, total, want)
			}
		}
	}
	return nil
}
