package armci

import (
	"fmt"
	"sort"

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
	// pages is the node page table: node n's state is entry n&nodePageMask
	// of page n>>nodePageBits. A page is nil until one of its nodes is first
	// touched (see node), and then carved from slabs.pages, so a 64k-node job
	// whose traffic crosses a few dozen nodes holds a page or two of node
	// state, not 65 536 records. Readers that walk every node read a nil page
	// as fresh nodes (see eachNode). Pages never move once carved, so
	// pointers into them (taken freely) stay valid for the runtime's
	// lifetime.
	pages []*nodePage
	// ranks is a value slice: per-rank state lives in one index-addressed
	// array instead of a heap object per rank.
	ranks []Rank
	// slabs holds what a node's edge state is carved from on its first edge
	// use (nodeState.buildEdges) and an edge's egress on the edge's first
	// use (nodeState.buildEg), so a run pays for the nodes and edges it
	// uses, not for every edge the topology allows; and what the pools of
	// request records, handles and their buffers warm up from.
	slabs edgeSlabs

	allocs map[string]*allocation

	barrier barrierState
	mutexes []mutexState
	// world is the member list of world collectives (all ranks), built on
	// the first one (see worldMembers).
	world []int

	// nstats holds each node's Stats block, nil until the node's first
	// counter write carves one from slabs.stats (see st). Every counter is
	// incremented only from its node's owner context (rank process, CHT, or
	// an event pinned to the node). Stats() merges the blocks; a nil one
	// reads as zero everywhere.
	nstats []*Stats
	// obs is the observability side-car (nil unless Config.Metrics or
	// Config.Trace is set); see obs.go and docs/OBSERVABILITY.md.
	obs *obsState
	// faultInj mirrors Config.Faults (nil when fault injection is off).
	faultInj *faults.Injector

	// healArmed is true when Config.Heal.Enabled is set AND the fault
	// schedule contains node: faults — the only condition under which the
	// membership monitors and self-healing run (see membership.go).
	healArmed bool
	// poolCap is every edge's credit pool, PPN * BufsPerProc: the buffers
	// the receiver dedicates to the edge and the credits a fresh or reset
	// egress holds.
	poolCap int
	// cht0 is the process id of node 0's CHT once Start has spawned the
	// CHTs (node n's is cht0+n), and -1 before: carving a page hands each
	// of its CHTs that already parked on chtStub to its node's inbox.
	cht0 int
	// liveRanks counts rank processes still executing their body; the
	// membership monitors stop re-arming when it reaches zero so the event
	// queue can drain (the same termination rule sim.Watchdog uses). A
	// rank's exit decrements it in the global event exited.
	liveRanks int
	exited    sim.GlobalRun

	// Preallocated event/delivery trampolines, bound once in New so the hot
	// protocol paths schedule pooled records through fabric.SendArg and the
	// engine's *Arg variants without allocating a closure per message.
	// The fabric's delivery callbacks take a second argument, a
	// congestion mark that is always false; they ignore it.
	enqueueFn   func(arg any, _ bool) // request arrives at its next hop's CHT
	ackFn       func(arg any, _ bool) // credit ack arrives back at the sender
	respFn      func(arg any, _ bool) // response arrives at the origin node
	respLocalFn func(arg any)         // same-node response (no heartbeat)
	probeFn     func(arg any, _ bool) // heartbeat probe arrives at a neighbor
	noticeFn    func(arg any, _ bool) // membership notice arrives at a neighbor
	timeoutFn   func(arg any)         // a request's timeout timer fires at its origin
	tickFn      func(arg any)         // a node's failure-detector round (arg: *nodeState)
	arriveFn    func(arg any)         // a rank's barrier arrival (arg: its *sim.Gate)
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

	// Aggregation counters (zero unless Config.Agg is enabled).
	AggBatches    uint64 // multi-op batch packets injected (counted per hop)
	AggBatchedOps uint64 // sub-operations those packets carried

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
	// response (remote ops; always counted).
	Completions uint64
}

type nodeState struct {
	id int
	rt *Runtime
	// inbox is the CHT's request queue, held by value: a node costs no heap
	// object of its own, and the CHT, its only getter, parks inline.
	inbox sim.Queue[*request]
	// nbrs lists this node's virtual-topology neighbors in sorted order, or
	// is nil until the node's first edge use (see neighbors). It is the
	// index space for every per-edge slice below: neighbor nbrs[i] owns
	// egress eg[i], pending count pendingBySrc[i] and (with healing)
	// mv.lastHeard[i]/mv.state[i]. Traffic over an edge carries its egress,
	// which knows the edge's slot at both ends (egress.slot, egress.rev), so
	// request arrivals, buffer releases, credit acks and heartbeat probes
	// index these slices directly. A peer id alone — a response's sender,
	// the next hop a route picks, a notice's subject — is looked up by
	// binary search (nbrIdx): degree is logarithmic on the scalable
	// topologies, so the search beats a per-node map in both bytes and
	// cycles.
	nbrs []int
	// eg holds the egress toward each neighbor. An entry stays nil until the
	// edge is first used (egAt), and nil means a fresh, full credit pool
	// with nothing parked.
	eg []*egress
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
	// rids deduplicates retransmitted requests at the target. It is made at
	// the node's first request carrying a rid (only request timeouts issue
	// them), so an armed runtime holds one map per node that was ever a
	// target, not one per node. Entries survive the node's own
	// crash/recovery: a rebooted node keeping its dedup table is the
	// stable-storage simplification that preserves at-most-once apply for
	// requests retried across the outage.
	rids map[uint64]dupState
	// mv is this node's membership view of its virtual-topology neighbors
	// and its rings over their lines (nil unless healing is armed); see
	// membership.go.
	mv *memberView
	// avoid is this node's hopAvoided predicate (see avoids), nil until
	// its first detour.
	avoid func(node int) bool
	// ridSeq issues this node's request ids for timeout dedup; combined with
	// the node id (see armTimeout) the result is runtime-unique without any
	// cross-node counter.
	ridSeq uint64
	// notifies is this node's notify-wait state, keyed by consuming rank.
	// Both delivery and waiting run in this node's owner context (see
	// notify.go).
	notifies *notifyState

	// Free lists (every take and put runs in this node's owner context).
	// psFree recycles pendingSend records parked on this
	// node's egresses; reqFree recycles request records originated by this
	// node's ranks (see getReq and Runtime.release). Both are stacks linked
	// through the records themselves, so they never grow a backing array;
	// npsFree and nreqFree count their depths for the checkpoint digest.
	psFree            *pendingSend
	reqFree           *request
	npsFree, nreqFree int
}

// A node page holds the state of nodePageLen consecutive nodes (64, about
// 20 KB): small enough that a run touching a handful of nodes carves a page
// or two, large enough that the page table of a 64k-node job is 8 KB.
const (
	nodePageBits = 6
	nodePageLen  = 1 << nodePageBits
	nodePageMask = nodePageLen - 1
	pageChunkMin = 4
)

type nodePage [nodePageLen]nodeState

// chtStub is what a CHT waits on before its node is carved: its step at t=0
// on an uncarved node parks there and writes nothing, and carving the node
// hands it to the node's inbox as that queue's waiter (see carvePage).
var chtStub = sim.NewQueueStub("cht")

// node returns node n's state, carving its page on the page's first touch.
// The carve is a separate call so that node inlines.
func (rt *Runtime) node(n int) *nodeState {
	pg := rt.pages[n>>nodePageBits]
	if pg == nil {
		pg = rt.carvePage(n)
	}
	return &pg[n&nodePageMask]
}

// carved returns node n's state, or nil while its page has never been
// carved: a reader's view that carves nothing.
func (rt *Runtime) carved(n int) *nodeState {
	if pg := rt.pages[n>>nodePageBits]; pg != nil {
		return &pg[n&nodePageMask]
	}
	return nil
}

// carvePage carves node n's page from the runtime's slab and sets up each
// of its nodes fresh: id, inbox name, the observability side-car's depth hook, and
// with healing armed a membership view from a slab of views. Chunks grow with the pages carved so far, from
// pageChunkMin (a runtime of up to 256 nodes carves one), and never exceed
// the pages still uncarved, so a runtime that touches every node pays about
// log2 of its page count in mallocs and at most its page count in pages. A
// CHT already parked on chtStub becomes its inbox's waiter, as if it had
// polled the inbox empty.
func (rt *Runtime) carvePage(n int) *nodePage {
	p := n >> nodePageBits
	sl := &rt.slabs
	chunk := min(max(sl.npages, pageChunkMin), len(rt.pages)-sl.npages)
	pg := &carve(&sl.pages, 1, chunk)[0]
	sl.npages++
	var views []memberView
	if rt.healArmed {
		views = carve(&sl.views, nodePageLen, chunk*nodePageLen)
	}
	var onDepth func(int)
	if rt.obs != nil {
		onDepth = rt.obs.onDepth
	}
	lo := p << nodePageBits
	for v := lo; v < min(lo+nodePageLen, rt.cfg.Nodes); v++ {
		ns := &pg[v-lo]
		ns.id, ns.rt = v, rt
		ns.inbox.Init("cht", v)
		ns.inbox.OnDepth(onDepth)
		if views != nil {
			ns.mv = &views[v-lo]
		}
		if rt.cht0 >= 0 {
			ns.inbox.Adopt(chtStub, rt.eng.Proc(rt.cht0+v))
		}
	}
	rt.pages[p] = pg
	return pg
}

// eachNode calls fn for every node in id order. A node whose page was never
// carved is passed as a scratch record reading exactly as a carved,
// untouched node (its id and, with healing armed, an empty membership
// view; nothing else is set at carving time that a reader sees), so fn
// must only read, and must not keep the pointer.
func (rt *Runtime) eachNode(fn func(ns *nodeState)) {
	fresh := nodeState{rt: rt}
	if rt.healArmed {
		fresh.mv = &memberView{}
	}
	for n := 0; n < rt.cfg.Nodes; n++ {
		if ns := rt.carved(n); ns != nil {
			fn(ns)
			continue
		}
		fresh.id = n
		fn(&fresh)
	}
}

// eachCarved calls fn for every carved node in id order: the walk for
// readers to which a fresh node contributes nothing.
func (rt *Runtime) eachCarved(fn func(ns *nodeState)) {
	for p, pg := range rt.pages {
		if pg == nil {
			continue
		}
		lo := p << nodePageBits
		for n := lo; n < min(lo+nodePageLen, rt.cfg.Nodes); n++ {
			fn(&pg[n-lo])
		}
	}
}

// nbrIdx returns the index of peer in ns.nbrs (the per-edge slice index
// for every per-neighbor structure), or -1 when peer is not a neighbor. It
// builds the node's edge state on first use.
func (ns *nodeState) nbrIdx(peer int) int {
	nbrs := ns.neighbors()
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbrs[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == peer {
		return lo
	}
	return -1
}

// neighbors returns ns.nbrs, building the node's edge state on its first
// edge use. Call it from this node's owner context: that is where the
// slices are written. The build is a separate call so that neighbors
// inlines.
func (ns *nodeState) neighbors() []int {
	if ns.nbrs == nil {
		ns.buildEdges()
	}
	return ns.nbrs
}

// egAt returns the egress toward neighbor ns.nbrs[i], building it on first
// use. Call it from this node's owner context: that is where the entry is
// written. The build is a separate call so that egAt inlines.
func (ns *nodeState) egAt(i int) *egress {
	if eg := ns.eg[i]; eg != nil {
		return eg
	}
	return ns.buildEg(i)
}

// edgeSlabs is what per-node edge state, egresses, counter blocks and pool
// entries are carved from: the unused tail of one chunk per element type.
// Node lists are carved on a node's first edge use, egresses on an edge's
// first use, a Stats block on the node's first counter write, a request
// record, handle, rank pool or buffer when its free list or owner has none
// to reuse; a run that touches a handful of nodes allocates a handful of
// small chunks, one that touches thousands a few large ones.
type edgeSlabs struct {
	// carved counts the per-edge entries carved so far (the edges of every
	// built node), built the egresses built so far. They size the next
	// chunks, and carved - built bounds an egress chunk: no egress can be
	// built on an edge whose node has no list yet.
	carved, built int
	nbrs          []int
	eg            []*egress
	pending       []int32
	times         []sim.Time    // healing: mv.lastHeard
	states        []memberState // healing: mv.state
	egress        []egress

	// counted counts the Stats blocks carved so far, sizing the next chunk.
	counted int
	stats   []Stats

	// pages and views are what node pages and, with healing armed, their
	// membership views are carved from (see carvePage); npages counts the
	// pages carved so far.
	npages int
	pages  []nodePage
	views  []memberView

	// reqs, sends and handles are what request records, parked-send
	// records and pooled handles are carved from when a free list runs dry,
	// nreqs, nsends and nhandles how many were carved so far: a fresh
	// runtime warms its free lists up with a few chunks, not one object per
	// record.
	nreqs, nsends, nhandles, npools int
	reqs                            []request
	sends                           []pendingSend
	handles                         []Handle
	pools                           []rankPool
	// bytes and segs are what pooled records' and handles' payload,
	// response and segment buffers are carved from when theirs are too
	// small (growBytes, growSegs); nbytes and nsegs size the next chunks.
	nbytes, nsegs int
	bytes         []byte
	segs          []Seg
}

// edgeChunk is the most per-edge entries one node-list chunk holds, egChunk
// the most egresses one egress chunk holds (128 KiB), statsChunk the most
// Stats blocks one counter chunk holds (80 KiB), poolChunk the most request
// records (78 KiB), parked-send records (24 KiB), handles (46 KiB) or rank
// pools (112 KiB) one chunk holds, and bufChunk and segChunk the most bytes
// or segments one buffer chunk holds (64 KiB each).
const (
	edgeChunk  = 8192
	egChunk    = 1024
	statsChunk = 256
	poolChunk  = 256
	bufChunk   = 64 << 10
	segChunk   = 4096
)

// carve returns the next n elements of *slab, starting a new chunk of at
// least chunk elements when the current one runs short.
func carve[T any](slab *[]T, n, chunk int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, chunk))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// buildEdges carves this node's neighbor list, egress pointers, pending
// counts and, with healing, membership slices, then fills the list from one
// neighbor walk. Chunks grow with the entries carved so far, from 64 up to
// edgeChunk. Every entry starts as New used to set it for all nodes at
// once, so which nodes were built never shows in a digest or a count.
func (ns *nodeState) buildEdges() {
	rt := ns.rt
	deg := rt.topo.Degree(ns.id)
	sl := &rt.slabs
	chunk := min(max(sl.carved, 64), edgeChunk)
	sl.carved += deg
	nbrs := carve(&sl.nbrs, deg, chunk)
	ns.eg = carve(&sl.eg, deg, chunk)
	ns.pendingBySrc = carve(&sl.pending, deg, chunk)
	if ns.mv != nil {
		ns.mv.lastHeard = carve(&sl.times, deg, chunk)
		ns.mv.state = carve(&sl.states, deg, chunk)
	}
	ns.nbrs = rt.topo.AppendNeighbors(nbrs[:0], ns.id)
}

// buildEg carves the egress toward ns.nbrs[i] from the runtime's slab.
// Chunks grow with the number of egresses built so far, from 16 up to
// egChunk, and never exceed the carved edges still without one, so none
// allocates more records than the topology has edges.
func (ns *nodeState) buildEg(i int) *egress {
	rt := ns.rt
	sl := &rt.slabs
	eg := &carve(&sl.egress, 1, min(max(sl.built, 16), egChunk, sl.carved-sl.built))[0]
	sl.built++
	*eg = egress{rt: rt, from: ns.id, to: ns.nbrs[i], credits: rt.poolCap, slot: int32(i), rev: -1}
	ns.eg[i] = eg
	return eg
}

// nodeEdges calls fn for every node in id order with the node-major index
// of its first edge and its degree — a built node's list length, the
// topology's Degree for one never built — and returns the edge count.
// Readers that number edges node-major (the checkpoint egress section, the
// edge metrics) derive the bases here; no node stores one.
func (rt *Runtime) nodeEdges(fn func(ns *nodeState, base, deg int)) int {
	base := 0
	rt.eachNode(func(ns *nodeState) {
		deg := len(ns.nbrs)
		if ns.nbrs == nil {
			deg = rt.topo.Degree(ns.id)
		}
		fn(ns, base, deg)
		base += deg
	})
	return base
}

// dupState is what the target remembers about a request id: whether it has
// responded, and the rmw old value it must re-send for a lost response.
// Stored by value in nodeState.rids — an entry is 16 bytes in the map, not a
// separate heap object per deduplicated request.
type dupState struct {
	responded bool
	old       int64
}

// barrierState counts arrivals of the current world barrier. It is mutated
// only from global events (see Rank.Barrier).
type barrierState struct {
	arrived int
	// gates holds the arrived ranks' gates; the last arrival fires them
	// all. The slice keeps its backing array from barrier to barrier.
	gates []*sim.Gate
}

// arrive registers one rank's arrival at the world barrier of n ranks.
func (b *barrierState) arrive(gate *sim.Gate, n int) {
	b.arrived++
	b.gates = append(b.gates, gate)
	if b.arrived < n {
		return
	}
	b.arrived = 0
	for _, g := range b.gates {
		g.Fire()
	}
	clear(b.gates)
	b.gates = b.gates[:0]
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
		poolCap:  cfg.PPN * cfg.BufsPerProc,
		cht0:     -1,
	}
	cfg.Faults.Instrument(cfg.Metrics, cfg.Trace, cfg.TracePID)
	// Node ids are the scheduling owners. The owner space is the fabric's
	// full torus capacity, not just the node count: messages traverse
	// intermediate torus positions, and each hop's event is owned by the
	// position whose link it reserves. Global events (barrier arrivals,
	// rank exits) land one link hop latency after their caller.
	eng.ConfigureOwners(rt.net.Capacity(), rt.net.Config().HopLatency)
	rt.nstats = make([]*Stats, cfg.Nodes)
	rt.mutexes = make([]mutexState, cfg.Mutexes)
	for m := range rt.mutexes {
		rt.mutexes[m].owner = -1
	}
	// Per-node state, inbox included, lives in pages carved on a node's
	// first touch (see node); a node's per-edge slices — neighbor list,
	// egress pointers, pending counts — are carved on its first edge use
	// (see buildEdges) and its counters on its first write (see st), so New
	// touches no node and a 64k-node job whose traffic crosses a few hundred
	// nodes pays for those alone.
	rt.pages = make([]*nodePage, (cfg.Nodes+nodePageMask)>>nodePageBits)
	// A rank's pointers are set when its body first runs (see Start), so
	// New writes none and a collection that marks the array meanwhile finds
	// nothing to follow in it.
	rt.ranks = make([]Rank, cfg.Nodes*cfg.PPN)
	for r := range rt.ranks {
		rk := &rt.ranks[r]
		rk.rank, rk.node = int32(r), int32(r/cfg.PPN)
	}
	rt.bindDispatch()
	// Crash-stop semantics arm whenever the schedule contains node faults;
	// membership + healing additionally require Heal.Enabled, so runs
	// without node faults (and heal-off ablations) are bit-identical.
	if cfg.Faults.HasNodeFaults() {
		rt.healArmed = cfg.Heal.Enabled
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
	// Request delivery at its next hop.
	rt.enqueueFn = func(arg any, _ bool) {
		req := arg.(*request)
		rt.node(req.up.to).enqueue(req)
	}
	// Credit ack back at the sender: the egress record itself travels as the
	// argument. The ack doubles as a membership heartbeat at the receiver
	// (heard is a no-op unless healing is armed).
	rt.ackFn = func(arg any, _ bool) {
		eg := arg.(*egress)
		rt.node(eg.from).heardAt(int(eg.slot))
		eg.release()
	}
	// Heartbeat probe over the edge eg.from -> eg.to (see monitorTick).
	rt.probeFn = func(arg any, _ bool) {
		eg := arg.(*egress)
		ns := rt.node(eg.to)
		ns.heardAt(ns.upSlot(eg))
	}
	// Membership notice (see announce): rare, so the record is allocated.
	rt.noticeFn = func(arg any, _ bool) {
		n := arg.(*notice)
		rt.node(n.to).onNotice(n)
	}
	// Response arrival at the origin node: completion bookkeeping (see
	// respond).
	rt.respFn = func(arg any, _ bool) {
		req := arg.(*request)
		origin := int(req.originNode)
		ns := rt.node(origin)
		// Only a neighbor's response is proof of life, and a neighbor is
		// reached over the direct edge on every route (each admissible hop
		// toward it is the neighbor itself), so the request's last edge
		// left the origin exactly when the responder is a neighbor, and
		// it names the responder's slot there.
		if up := req.up; up != nil && up.from == origin {
			ns.heardAt(int(up.slot))
		}
		rt.completeResp(req)
	}
	// Same-node response through shared memory: no heartbeat (local
	// traffic never crosses the fabric).
	rt.respLocalFn = func(arg any) {
		rt.completeResp(arg.(*request))
	}
	// Timers: a request's timeout (the record carries its current timeout,
	// see armTimeout) and a node's heartbeat round.
	rt.timeoutFn = func(arg any) { rt.onTimeout(arg.(*request)) }
	rt.tickFn = func(arg any) { arg.(*nodeState).monitorTick() }
	rt.arriveFn = func(arg any) { rt.barrier.arrive(arg.(*sim.Gate), len(rt.ranks)) }
}

// completeResp applies one response at the origin: get payloads are copied
// into the handle's buffer at the chunk's flat offset, rmw carries the old
// value, and the response's hold on the request record is released.
func (rt *Runtime) completeResp(req *request) {
	h, chunk := req.h, int(req.chunk)
	if !h.chunkComplete(chunk) { // duplicate or raced response: idempotent
		if req.respBuf {
			copy(h.data[req.flatOff:req.flatOff+len(req.buf)], req.buf)
		}
		if req.kind == opRmw || req.kind == opSwap {
			h.old = req.respOld
		}
		rt.st(int(req.originNode)).Completions++
		h.completeChunkAt(chunk)
	}
	rt.release(req)
}

// getReq returns a request record for an operation originated on node,
// recycled from the node's free list when it has one, carved otherwise. The
// record starts with one hold, its response's (see release). Call sites must
// assign every field they rely on: a recycled record is zeroed at release,
// but the compiler cannot check a field-assignment block the way it checks a
// composite literal.
func (rt *Runtime) getReq(node int) *request {
	ns := rt.node(node)
	if req := ns.reqFree; req != nil {
		ns.reqFree, req.next = req.next, nil
		ns.nreqFree--
		req.freed, req.holds = false, 1
		return req
	}
	req := rt.slabs.carveReq()
	req.holds = 1
	return req
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
		rt.node(int(req.originNode)).putReq(req)
	}
}

// putReq recycles req into this node's free list and drops its hold on its
// handle. The record is zeroed except for the segs and buf backing arrays,
// which are retained for the next vectored operation, owned payload or get
// response. Releasing a record twice panics: an aliased free would hand two
// in-flight operations the same storage.
func (ns *nodeState) putReq(req *request) {
	if req.freed {
		panic("armci: request record released twice")
	}
	if req.h != nil {
		req.h.drop()
	}
	segs, buf := req.segs[:0], req.buf[:0]
	*req = request{segs: segs, buf: buf, freed: true, next: ns.reqFree}
	ns.reqFree = req
	ns.nreqFree++
}

// getPS returns a pendingSend record for a send parked on one of this node's
// egresses, recycled from the node's free list when it has one, carved
// otherwise.
func (ns *nodeState) getPS() *pendingSend {
	if ps := ns.psFree; ps != nil {
		ns.psFree, ps.next = ps.next, nil
		ns.npsFree--
		ps.freed = false
		return ps
	}
	return ns.rt.slabs.carvePS()
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
	*ps = pendingSend{freed: true, next: ns.psFree}
	ns.psFree = ps
	ns.npsFree++
}

// worldMembers returns the member list of world collectives (all ranks),
// building it on the first call: a job that runs no world collective
// never holds it.
func (rt *Runtime) worldMembers() []int {
	if rt.world == nil {
		rt.world = make([]int, len(rt.ranks))
		for r := range rt.world {
			rt.world[r] = r
		}
	}
	return rt.world
}

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

// st returns the stats block counters for node should be charged to,
// carving it on the node's first write. Every call site runs in node's owner
// context. The carve is a separate call so that st inlines.
func (rt *Runtime) st(node int) *Stats {
	if s := rt.nstats[node]; s != nil {
		return s
	}
	return rt.carveStats(node)
}

// carveGrowing carves n elements from *slab in chunks that grow with
// *carved, the elements carved so far, from lo up to hi.
func carveGrowing[T any](slab *[]T, carved *int, n, lo, hi int) []T {
	s := carve(slab, n, min(max(*carved, lo), hi))
	*carved += n
	return s
}

// carveReq carves a request record for a free list that ran dry, carvePS a
// parked-send record, carveHandle a pooled handle and carvePool a rank's
// pool.
func (sl *edgeSlabs) carveReq() *request {
	return &carveGrowing(&sl.reqs, &sl.nreqs, 1, 16, poolChunk)[0]
}

func (sl *edgeSlabs) carvePS() *pendingSend {
	return &carveGrowing(&sl.sends, &sl.nsends, 1, 16, poolChunk)[0]
}

func (sl *edgeSlabs) carveHandle() *Handle {
	return &carveGrowing(&sl.handles, &sl.nhandles, 1, 16, poolChunk)[0]
}

func (sl *edgeSlabs) carvePool() *rankPool {
	return &carveGrowing(&sl.pools, &sl.npools, 1, 16, poolChunk)[0]
}

// growBytes returns b emptied with room for n bytes: b itself when its
// backing array is large enough, otherwise a zeroed array of exactly n
// bytes carved from the runtime's slab. growSegs does the same for
// segments. The buffers belong to pooled records and handles, which live
// as long as the runtime, so a chunk is not pinned by one small survivor.
func (rt *Runtime) growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:0]
	}
	sl := &rt.slabs
	return carveGrowing(&sl.bytes, &sl.nbytes, n, 1<<10, bufChunk)[:0]
}

func (rt *Runtime) growSegs(s []Seg, n int) []Seg {
	if cap(s) >= n {
		return s[:0]
	}
	sl := &rt.slabs
	return carveGrowing(&sl.segs, &sl.nsegs, n, 64, segChunk)[:0]
}

// carveStats carves node's Stats block from the runtime's slab, in chunks
// that grow with the blocks carved so far, from 16 up to statsChunk.
func (rt *Runtime) carveStats(node int) *Stats {
	sl := &rt.slabs
	s := &carveGrowing(&sl.stats, &sl.counted, 1, 16, statsChunk)[0]
	rt.nstats[node] = s
	return s
}

// Stats merges the per-node counter blocks into runtime totals. Call it from
// coordinator context (between runs or after Run), not from rank bodies.
func (rt *Runtime) Stats() Stats {
	var s Stats
	for _, n := range rt.nstats {
		if n == nil {
			continue
		}
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
	rt.eachCarved(func(ns *nodeState) {
		if m := ns.inbox.MaxLen(); m > s.MaxCHTBacklog {
			s.MaxCHTBacklog = m
		}
	})
	return s
}

// Alloc registers a global allocation: every rank gets bytes of remotely
// addressable memory under the given name. It is idempotent for identical
// sizes and panics on conflicting re-registration.
func (rt *Runtime) Alloc(name string, bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("armci: Alloc(%q) with negative size", name))
	}
	if a, ok := rt.allocs[name]; ok {
		if a.bytes != bytes {
			panic(fmt.Sprintf("armci: Alloc(%q) size conflict: %d vs %d", name, a.bytes, bytes))
		}
		return
	}
	// Nothing per rank is allocated here: the per-rank table is made at the
	// allocation's first touch and a rank's memory page by page as it is
	// written (see memory.go), so registering an allocation on a 64k-rank
	// job costs no slab and no table.
	rt.allocs[name] = &allocation{name: name, bytes: bytes, ranks: len(rt.ranks)}
}

// Memory returns rank's local slice of the named allocation (direct access,
// as a process would touch its own partition of the global address space).
// It flattens the rank: the first call materializes the whole slab, with
// the pages written so far copied in, and every later access to the rank,
// local or remote, goes to that slab.
func (rt *Runtime) Memory(rank int, name string) []byte {
	return rt.alloc(name).slab(rank)
}

// sortedAllocs returns the registered allocations in name order.
func (rt *Runtime) sortedAllocs() []*allocation {
	as := make([]*allocation, 0, len(rt.allocs))
	for _, a := range rt.allocs {
		as = append(as, a)
	}
	sort.Slice(as, func(i, j int) bool { return as[i].name < as[j].name })
	return as
}

func (rt *Runtime) alloc(name string) *allocation {
	a, ok := rt.allocs[name]
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
	rt.eachCarved(func(ns *nodeState) {
		for _, eg := range ns.eg {
			if eg != nil && eg.pending.len() > 0 {
				stall.Edges = append(stall.Edges, StalledEdge{eg.from, eg.to, eg.credits, rt.poolCap, eg.pending.len()})
			}
		}
	})
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
	// owner. One step function serves every CHT and one body wrapper and exit
	// callback every rank: a process's number is its node or rank, so
	// spawning allocates no closure (a method value per node would).
	//
	// The CHTs and the ranks are two spawn bursts, each one entry in the
	// event queue (CHT n is owned by node n, rank r by node r/PPN).
	//
	// A CHT's step on a node never carved parks on chtStub instead of its
	// inbox, so its t=0 poll writes nothing and its process record goes
	// back to the engine; carving the node hands it to the inbox (see
	// carvePage). The spawn events, and so every event key, are the same
	// either way.
	chtStep := func(p *sim.Proc) {
		if ns := rt.carved(p.Num()); ns != nil {
			ns.chtStep(p)
			return
		}
		chtStub.Park(p)
	}
	rt.cht0 = rt.eng.SpawnStepBurst(rt.cfg.Nodes, 1, "cht", chtStep)
	rt.liveRanks = len(rt.ranks)
	rt.exited.Init(func() { rt.liveRanks-- })
	rankBody := func(p *sim.Proc) {
		r := &rt.ranks[p.Num()]
		r.rt, r.proc = rt, p
		body(r)
		// Aggregated operations still buffered when the body returns
		// would otherwise never be injected.
		r.flushAllAgg()
		// liveRanks is shared across nodes, so the decrement is a global
		// event; ranks that return at one instant, one per node, share its
		// queue entry.
		rt.eng.AtGlobalRun(&rt.exited)
		r.proc = nil
	}
	rt.eng.SpawnBurst(len(rt.ranks), rt.cfg.PPN, "rank", rankBody)
	if rt.healArmed {
		for n := range rt.cfg.Nodes {
			rt.eng.AfterOnArg(n, heartbeatInterval, rt.tickFn, rt.node(n))
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
	buffers := core.NodeBufferBytes(topo, node, c.PPN, c.BufsPerProc, c.BufSize)
	conn := int64(topo.Degree(node)) * int64(c.PPN) * c.ConnBytes
	return c.BaseRSSBytes + buffers + conn
}

// BufferBytes returns just the request-buffer memory on a node, the
// topology-dependent term of MasterRSS.
func (rt *Runtime) BufferBytes(node int) int64 {
	return core.NodeBufferBytes(rt.topo, node, rt.cfg.PPN, rt.cfg.BufsPerProc, rt.cfg.BufSize)
}

// nextHop is the forwarding rule: the topology's NextHop (LDF), unless src
// avoids that intermediate — its CHT is stalled by an injected fault or src
// has confirmed it dead. Then it detours through the first hop of
// Topology.Hop that src does not avoid — a different dimension correction,
// so the D <= M bound of partially populated topologies still holds (the
// same-dimension "detour" would route straight back through the avoided
// node) — or keeps the preferred hop when every alternative is avoided too.
func (rt *Runtime) nextHop(src, dst int) int {
	next := rt.topo.NextHop(src, dst)
	if next == dst || !rt.hopAvoided(src, next) {
		return next
	}
	if alt, ok := rt.topo.Hop(src, dst, rt.node(src).avoids()); ok {
		rt.st(src).Reroutes++
		return alt
	}
	return next
}

// avoids returns ns's hopAvoided predicate for Topology.Hop. It is built on
// the first detour and kept, so forwarding allocates nothing per call and
// runs that never detour never build it.
func (ns *nodeState) avoids() func(node int) bool {
	if ns.avoid == nil {
		ns.avoid = func(node int) bool { return ns.rt.hopAvoided(ns.id, node) }
	}
	return ns.avoid
}

// hopAvoided reports whether src should not forward through node: its CHT is
// stalled by an injected fault, or src's membership view has confirmed it
// dead. Fault-free runs always answer false, keeping routing bit-identical.
func (rt *Runtime) hopAvoided(src, node int) bool {
	if fi := rt.faultInj; fi != nil && fi.CHTStalled(node) {
		return true
	}
	return rt.healArmed && rt.node(src).isDead(node)
}

// egressTo returns node's egress over the direct edge to peer.
func (rt *Runtime) egressTo(node, peer int) *egress {
	ns := rt.node(node)
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
	if peer >= 0 && peer < rt.cfg.Nodes {
		ns := rt.node(node)
		if i := ns.nbrIdx(peer); i >= 0 {
			return ns.egAt(i), nil
		}
	}
	return nil, &NoRouteError{From: node, To: peer}
}

// CheckCreditInvariants verifies the buffer-accounting invariants the
// protocol maintains through faults, healing and aggregation: every built
// egress holds 0 <= credits <= PPN * BufsPerProc with a non-negative regen
// debt (an unbuilt one is a full pool and holds them trivially). The chaos
// harness and property tests call it after every run.
func (rt *Runtime) CheckCreditInvariants() error {
	var err error
	rt.eachCarved(func(ns *nodeState) {
		for i, peer := range ns.nbrs {
			eg := ns.eg[i]
			switch {
			case err != nil || eg == nil:
			case eg.credits < 0 || eg.credits > rt.poolCap:
				err = fmt.Errorf("armci: egress %d->%d credits %d outside [0,%d]",
					ns.id, peer, eg.credits, rt.poolCap)
			case eg.regenDebt < 0:
				err = fmt.Errorf("armci: egress %d->%d negative regen debt %d",
					ns.id, peer, eg.regenDebt)
			}
		}
	})
	return err
}
