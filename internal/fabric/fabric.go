// Package fabric models the physical interconnect of a Cray XT5-class
// machine: a 3-D torus of nodes with dimension-order routing, per-link
// bandwidth serialization, per-hop latency, and NIC injection/ejection
// serialization. It substitutes for the SeaStar2+/Portals hardware the paper
// ran on: hot-spot traffic queues up at the victim node's ejection port and
// on the links leading to it, which is the physical phenomenon the paper's
// virtual topologies attenuate in software.
//
// Messages advance hop by hop in virtual time (package sim), reserving each
// link at their actual arrival instant, so FIFO contention and backpressure
// delays are modeled faithfully rather than estimated.
package fabric

import (
	"fmt"
	"math"

	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// Config sets the physical machine parameters. Bandwidths are in bytes per
// nanosecond (1 byte/ns = 1 GB/s).
type Config struct {
	// Shape is the torus extent per dimension; its product must cover the
	// node count. Zero value lets New pick a near-cubic shape.
	Shape [3]int
	// LinkBandwidth is the per-link bandwidth (SeaStar2+ peak ~9.6 GB/s).
	LinkBandwidth float64
	// NICBandwidth is the node injection/ejection bandwidth.
	NICBandwidth float64
	// HopLatency is per-hop propagation plus router traversal time.
	HopLatency sim.Time
	// SoftwareOverhead is the per-message send cost paid at injection
	// (Portals command issue, doorbell, descriptor setup).
	SoftwareOverhead sim.Time
	// StreamLimit is the number of distinct source nodes an ejection port
	// can serve concurrently at full rate, modeling SeaStar2+'s bounded
	// set of simultaneous message streams. Beyond it, the BEER protocol's
	// flow control and retransmission slow every transfer down.
	StreamLimit int
	// StreamPenalty is the fractional serialization slowdown added per
	// source beyond StreamLimit (0.25 means each excess concurrent source
	// adds 25% to a message's ejection time).
	StreamPenalty float64

	// Faults, when non-nil, makes routing and link traversal consult the
	// injector: hard-failed links stall in-flight messages and steer fresh
	// routes onto the opposite ring arc, degraded links stretch their
	// serialization time, and storm bursts stretch a hot node's ejection
	// serialization. Nil (the default) leaves every code path
	// bit-identical to the fault-free model.
	Faults *faults.Injector
	// LinkRetry is how often a message parked at a failed link re-probes it.
	LinkRetry sim.Time
	// LinkStallLimit caps how long a message waits at a failed link before
	// the fabric drops it (the runtime's timeout machinery recovers it).
	LinkStallLimit sim.Time
}

// DefaultConfig returns XT5-flavoured parameters and a near-cubic torus
// shape for n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Shape:            TorusShape(n),
		LinkBandwidth:    9.6,
		NICBandwidth:     2.0,
		HopLatency:       100 * sim.Nanosecond,
		SoftwareOverhead: 1 * sim.Microsecond,
		StreamLimit:      32,
		StreamPenalty:    0.25,
	}
}

// BlueGenePConfig returns parameters flavoured after the IBM Blue Gene/P
// interconnect the paper names as future work: a 3-D torus with much slower
// links (425 MB/s) but a lower-overhead DMA path and a hardware-managed
// injection FIFO that tolerates more concurrent streams. Virtual-topology
// experiments run against it to check that contention attenuation is not an
// XT5 artifact.
func BlueGenePConfig(n int) Config {
	return Config{
		Shape:            TorusShape(n),
		LinkBandwidth:    0.425,
		NICBandwidth:     0.85,
		HopLatency:       64 * sim.Nanosecond,
		SoftwareOverhead: 600 * sim.Nanosecond,
		StreamLimit:      64,
		StreamPenalty:    0.125,
	}
}

// TorusShape factors n into three near-equal extents whose product covers n.
func TorusShape(n int) [3]int {
	if n < 1 {
		n = 1
	}
	x := int(math.Ceil(math.Cbrt(float64(n))))
	if x < 1 {
		x = 1
	}
	y := int(math.Ceil(math.Sqrt(float64(n) / float64(x))))
	if y < 1 {
		y = 1
	}
	z := (n + x*y - 1) / (x * y)
	if z < 1 {
		z = 1
	}
	return [3]int{x, y, z}
}

// link is a directed physical channel with FIFO bandwidth reservation.
type link struct {
	nextFree sim.Time
	busy     sim.Time // accumulated serialization time
	msgs     uint64
}

// reserve books the link for a transfer of ser duration arriving at t and
// returns the instant transmission starts.
func (l *link) reserve(t sim.Time, ser sim.Time) sim.Time {
	start := t
	if l.nextFree > start {
		start = l.nextFree
	}
	l.nextFree = start + ser
	l.busy += ser
	l.msgs++
	return start
}

// Stats aggregates fabric-wide counters. Internally the network keeps one
// Stats per torus position, each mutated only by events owned by that
// position, and Stats() merges them (sums, and maxima for the two
// high-water marks).
type Stats struct {
	Messages     uint64
	Bytes        uint64
	MaxQueueWait sim.Time // worst single-link queue delay observed
	MaxStreams   int      // most distinct sources concurrently queued at one ejection port
	LinkStalls   uint64   // messages that parked at a hard-failed link
	Reroutes     uint64   // routes steered onto the long ring arc around a failure
	Dropped      uint64   // messages dropped after LinkStallLimit at a failed link
	NodeDrops    uint64   // messages dropped because their source or destination node crashed
}

// Network is a simulated torus interconnect for n nodes.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	n     int
	shape [3]int
	// stride[d] is the position-id distance between torus neighbors along
	// dimension d (ids are x-major).
	stride [3]int
	// Directed links: index (node*6 + dim*2 + dir), dir 0 = minus, 1 = plus.
	links []link
	// NIC injection (inj) and ejection (ej) ports per node.
	inj []link
	ej  []link
	// ejSources[node] counts queued messages per source node at the
	// ejection port, for the stream-overload model. A node's map is made on
	// its first ejection: most nodes of a large job never receive one.
	ejSources []map[int]int
	// stats[pos] holds the counters attributed to torus position pos; see
	// the Stats doc comment.
	stats []Stats

	// free holds recycled message records; fresh ones are carved from slab,
	// in chunks that grow with the records carved so far, from 16 up to
	// msgChunk (24 KiB). The free list's depth is host-side cache state, not
	// model state: no run observes it.
	free   []*msg
	slab   []msg
	carved int
	// Stored step functions for the pooled walk: allocated once here so the
	// per-hop schedule calls (AtOnArg and friends) carry a long-lived func
	// value plus a *msg and allocate nothing.
	stepFn, injectFn, loopFn, ejectFn, stallFn func(any)

	// Observability (nil when disabled): per-port queue-wait histograms,
	// resolved once at Instrument time so the hot path pays one nil check.
	reg       *obs.Registry
	waitInj   *obs.Histogram
	waitLink  *obs.Histogram
	waitEj    *obs.Histogram
	waitStall *obs.Histogram
}

// New creates a network of n nodes on engine e. A zero-value cfg field is
// replaced by its default.
func New(e *sim.Engine, n int, cfg Config) *Network {
	def := DefaultConfig(n)
	if cfg.Shape == ([3]int{}) {
		cfg.Shape = def.Shape
	}
	if cfg.LinkBandwidth <= 0 {
		cfg.LinkBandwidth = def.LinkBandwidth
	}
	if cfg.NICBandwidth <= 0 {
		cfg.NICBandwidth = def.NICBandwidth
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = def.HopLatency
	}
	if cfg.SoftwareOverhead <= 0 {
		cfg.SoftwareOverhead = def.SoftwareOverhead
	}
	if cfg.StreamLimit <= 0 {
		cfg.StreamLimit = def.StreamLimit
	}
	if cfg.StreamPenalty <= 0 {
		cfg.StreamPenalty = def.StreamPenalty
	}
	if cfg.LinkRetry <= 0 {
		cfg.LinkRetry = 2 * sim.Microsecond
	}
	if cfg.LinkStallLimit <= 0 {
		cfg.LinkStallLimit = 10 * sim.Millisecond
	}
	if cfg.Shape[0]*cfg.Shape[1]*cfg.Shape[2] < n {
		panic(fmt.Sprintf("fabric: shape %v cannot hold %d nodes", cfg.Shape, n))
	}
	// Links exist for every torus coordinate: when the job does not fill
	// the torus, routes still pass through the unpopulated positions'
	// routers (on the real machine those nodes belong to other jobs).
	capacity := cfg.Shape[0] * cfg.Shape[1] * cfg.Shape[2]
	if capacity > math.MaxInt32 {
		panic(fmt.Sprintf("fabric: shape %v has more than 2^31-1 positions", cfg.Shape))
	}
	nw := &Network{
		eng:       e,
		cfg:       cfg,
		n:         n,
		shape:     cfg.Shape,
		stride:    [3]int{1, cfg.Shape[0], cfg.Shape[0] * cfg.Shape[1]},
		links:     make([]link, capacity*6),
		inj:       make([]link, n),
		ej:        make([]link, n),
		ejSources: make([]map[int]int, n),
		stats:     make([]Stats, capacity),
	}
	nw.stepFn = func(a any) { nw.step(a.(*msg)) }
	nw.injectFn = func(a any) { nw.inject(a.(*msg)) }
	nw.loopFn = func(a any) { nw.loop(a.(*msg)) }
	nw.ejectFn = func(a any) { nw.eject(a.(*msg)) }
	nw.stallFn = func(a any) { m := a.(*msg); nw.stallAt(m, m.arrive) }
	return nw
}

// Nodes returns the node count.
func (nw *Network) Nodes() int { return nw.n }

// Config returns the effective configuration.
func (nw *Network) Config() Config { return nw.cfg }

// Stats returns the aggregate counters, merged across torus positions.
func (nw *Network) Stats() Stats {
	var out Stats
	for i := range nw.stats {
		s := &nw.stats[i]
		out.Messages += s.Messages
		out.Bytes += s.Bytes
		if s.MaxQueueWait > out.MaxQueueWait {
			out.MaxQueueWait = s.MaxQueueWait
		}
		if s.MaxStreams > out.MaxStreams {
			out.MaxStreams = s.MaxStreams
		}
		out.LinkStalls += s.LinkStalls
		out.Reroutes += s.Reroutes
		out.Dropped += s.Dropped
		out.NodeDrops += s.NodeDrops
	}
	return out
}

// Capacity returns the number of torus positions (>= Nodes): when the job
// does not fill the torus, routes still pass through unpopulated positions'
// routers, which own the events of the links they drive, so the engine's
// owner space must cover all of them.
func (nw *Network) Capacity() int { return len(nw.links) / 6 }

// msgChunk is the most message records one slab chunk holds.
const msgChunk = 256

// Coord maps a node ID to its torus coordinates.
func (nw *Network) Coord(node int) [3]int {
	return [3]int{
		node % nw.shape[0],
		node / nw.shape[0] % nw.shape[1],
		node / (nw.shape[0] * nw.shape[1]) % nw.shape[2],
	}
}

// Hops returns the dimension-order path length between two nodes with torus
// wraparound.
func (nw *Network) Hops(a, b int) int {
	ca, cb := nw.Coord(a), nw.Coord(b)
	total := 0
	for d := 0; d < 3; d++ {
		dist := ca[d] - cb[d]
		if dist < 0 {
			dist = -dist
		}
		if wrap := nw.shape[d] - dist; wrap < dist {
			dist = wrap
		}
		total += dist
	}
	return total
}

// arcBlocked reports whether walking dist steps from start along dimension d
// in direction dir crosses a currently hard-failed link.
func (nw *Network) arcBlocked(start, d, dir, dist int) bool {
	fi := nw.cfg.Faults
	cur := nw.Coord(start)
	node := start
	for s := 0; s < dist; s++ {
		next := cur
		if dir == 1 {
			next[d] = (cur[d] + 1) % nw.shape[d]
		} else {
			next[d] = (cur[d] - 1 + nw.shape[d]) % nw.shape[d]
		}
		nb := next[0] + next[1]*nw.shape[0] + next[2]*nw.shape[0]*nw.shape[1]
		if fi.LinkDown(node, nb) {
			return true
		}
		cur, node = next, nb
	}
	return false
}

// msg is a pooled in-flight message record. One is taken from the sender
// position's free list per Send, advanced hop by hop by the stored step
// functions (stepFn and friends) instead of a fresh closure per hop, and
// released to the free list of the position where the message ends —
// delivery, drop, or stall-limit expiry.
//
// The record carries no route: it knows where it is (pos, cur), where it is
// going (tgt), and which ring arc it takes in each dimension (dir, fixed at
// injection). Dimension-order routing never changes direction within a
// dimension, so the next link is always "along the lowest dimension not yet
// at its target, in that dimension's direction" — the same link sequence a
// materialized path would hold, at no per-message storage.
type msg struct {
	arrive     sim.Time // when the message reaches the next step (or retries a stall)
	serLink    sim.Time // per-link serialization time
	serNIC     sim.Time // NIC serialization time
	stallSince sim.Time // when the message first parked at a failed link
	// Node ids and coordinates are int32 (a Network has at most 2^31
	// nodes), which keeps the record at 96 B (pinned by
	// TestMsgSizeIsPinned): an incast burst holds one per message in
	// flight.
	src, dst int32
	pos      int32    // torus position the message is at (the next link's from end)
	cur, tgt [3]int32 // torus coordinates of pos and of dst
	dir      [3]int8  // ring direction per dimension: 1 plus, 0 minus
	freed    bool     // double-release guard
	// deliver(darg, false) runs when the message arrives (see SendArg).
	deliver func(arg any, ce bool)
	darg    any
}

// getMsg takes a recycled record from the free list, or carves a fresh one
// when the list is empty.
func (nw *Network) getMsg() *msg {
	if n := len(nw.free); n > 0 {
		m := nw.free[n-1]
		nw.free[n-1] = nil
		nw.free = nw.free[:n-1]
		m.freed = false
		return m
	}
	if len(nw.slab) == 0 {
		nw.slab = make([]msg, min(max(nw.carved, 16), msgChunk))
	}
	m := &nw.slab[0]
	nw.slab = nw.slab[1:]
	nw.carved++
	return m
}

// putMsg zeroes m and releases it to the free list. Releasing twice panics.
func (nw *Network) putMsg(m *msg) {
	if m.freed {
		panic("fabric: message record released twice")
	}
	*m = msg{freed: true}
	nw.free = append(nw.free, m)
}

// finish releases m to the free list and then invokes its delivery callback
// — in that order, so a delivery that immediately Sends reuses the record it
// just completed.
func (nw *Network) finish(m *msg) {
	deliver, arg := m.deliver, m.darg
	nw.putMsg(m)
	deliver(arg, false)
}

// SendArg injects a message of size bytes from node src to node dst and
// calls deliver(arg, false) (in engine context, as owner dst) when the last byte
// is ejected at dst. Loopback (src == dst) pays only the software overhead.
//
// The callback's second argument, ce, is always false: the fabric marks no
// congestion. It stays in the signature only because existing callers
// compile against it.
//
// A send allocates nothing when deliver is a long-lived func value (stored
// once by the caller, not built per send) and arg the per-message state,
// already pointer-shaped so the any conversion does not allocate. Cold paths
// may pass a fresh closure and a nil arg.
func (nw *Network) SendArg(src, dst, size int, deliver func(arg any, ce bool), arg any) {
	if src < 0 || src >= nw.n || dst < 0 || dst >= nw.n {
		panic(fmt.Sprintf("fabric: SendArg %d->%d out of range [0,%d)", src, dst, nw.n))
	}
	if size < 0 {
		panic("fabric: negative message size")
	}
	st := &nw.stats[src]
	st.Messages++
	st.Bytes += uint64(size)
	m := nw.getMsg()
	m.src, m.dst = int32(src), int32(dst)
	m.deliver, m.darg = deliver, arg
	if src == dst {
		nw.eng.AfterOnArg(src, nw.cfg.SoftwareOverhead, nw.loopFn, m)
		return
	}
	m.serLink = sim.Time(float64(size) / nw.cfg.LinkBandwidth)
	m.serNIC = sim.Time(float64(size) / nw.cfg.NICBandwidth)
	nw.eng.AfterOnArg(src, nw.cfg.SoftwareOverhead, nw.injectFn, m)
}

// loop completes a loopback message after the software overhead.
func (nw *Network) loop(m *msg) {
	src := int(m.src)
	if nw.cfg.Faults != nil && nw.cfg.Faults.NodeDown(src) {
		nw.stats[src].NodeDrops++
		nw.putMsg(m)
		return
	}
	nw.finish(m)
}

// inject runs at src after the software overhead: it fixes the route —
// at injection time so it reflects the fault state then, not at the Send
// call — reserves the injection NIC, and schedules the first walk step.
func (nw *Network) inject(m *msg) {
	src := int(m.src)
	// A crashed source NIC injects nothing: anything its software stack had
	// queued dies with the node.
	if fi := nw.cfg.Faults; fi != nil && fi.NodeDown(src) {
		nw.stats[src].NodeDrops++
		nw.putMsg(m)
		return
	}
	nw.aim(m)
	now := nw.eng.Now()
	start := nw.inj[src].reserve(now, m.serNIC)
	nw.noteWait(src, start-now, nw.waitInj)
	m.arrive = start + m.serNIC + nw.cfg.HopLatency
	nw.scheduleStep(m)
}

// aim places m at its source and fixes its route to dst: dimension order
// with torus wraparound, taking in each dimension the shorter ring arc (the
// plus arc on a tie). With fault injection on, a dimension whose short arc
// crosses a hard-failed link takes the long way round instead, when that arc
// is clear. Choosing once per dimension (never mid-arc) keeps routes minimal
// per dimension and rules out ping-pong livelock.
func (nw *Network) aim(m *msg) {
	src := int(m.src)
	linkFaults := nw.cfg.Faults.LinkFaults() > 0
	cur, tgt := nw.Coord(src), nw.Coord(int(m.dst))
	m.pos = m.src
	node := src // where the walk enters dimension d
	for d := 0; d < 3; d++ {
		m.cur[d], m.tgt[d] = int32(cur[d]), int32(tgt[d])
		if cur[d] == tgt[d] {
			continue
		}
		fwd := (tgt[d] - cur[d] + nw.shape[d]) % nw.shape[d]
		bwd := nw.shape[d] - fwd
		dir, dist := 1, fwd
		if bwd < fwd {
			dir, dist = 0, bwd
		}
		if linkFaults && nw.arcBlocked(node, d, dir, dist) &&
			!nw.arcBlocked(node, d, 1-dir, nw.shape[d]-dist) {
			dir = 1 - dir
			nw.stats[src].Reroutes++
		}
		m.dir[d] = int8(dir)
		node += (tgt[d] - cur[d]) * nw.stride[d]
	}
}

// nextHop returns the link m crosses next from its current position, the
// dimension it moves along, and the position it reaches; ok is false once
// m is at its destination (ejection is next).
func (nw *Network) nextHop(m *msg) (li, d, to int, ok bool) {
	for d = 0; d < 3; d++ {
		if m.cur[d] != m.tgt[d] {
			c := nw.ringStep(m, d)
			pos := int(m.pos)
			to = pos + (int(c)-int(m.cur[d]))*nw.stride[d]
			return pos*6 + d*2 + int(m.dir[d]), d, to, true
		}
	}
	return 0, 0, 0, false
}

// advance moves m across the link nextHop returned (along dimension d, to
// position to).
func (nw *Network) advance(m *msg, d, to int) {
	m.cur[d] = nw.ringStep(m, d)
	m.pos = int32(to)
}

// ringStep returns m's coordinate in dimension d after one hop along its
// chosen direction, wrapping around the ring.
func (nw *Network) ringStep(m *msg, d int) int32 {
	c := m.cur[d]
	if m.dir[d] == 1 {
		if c++; int(c) == nw.shape[d] {
			c = 0
		}
		return c
	}
	if c == 0 {
		c = int32(nw.shape[d])
	}
	return c - 1
}

// scheduleStep schedules m's next step — traversal of the next link on its
// route, or ejection at dst once it has arrived — at m.arrive. Each step's
// event is owned by the position whose link or port it reserves: the
// message's current position.
func (nw *Network) scheduleStep(m *msg) {
	nw.eng.AtOnArg(int(m.pos), m.arrive, nw.stepFn, m)
}

// step executes one walk step at its owning position: a link traversal when
// the message has not arrived, the ejection-port reservation otherwise.
func (nw *Network) step(m *msg) {
	now := m.arrive
	if li, d, to, ok := nw.nextHop(m); ok {
		hop := int(m.pos)
		ser := m.serLink
		if fi := nw.cfg.Faults; fi.LinkFaults() > 0 {
			if fi.LinkDown(hop, to) {
				nw.stats[hop].LinkStalls++
				m.stallSince = now
				nw.stallAt(m, now)
				return
			}
			if f := fi.LinkFactor(hop, to); f < 1 {
				ser = sim.Time(float64(m.serLink) / f)
			}
		}
		start := nw.links[li].reserve(now, ser)
		nw.noteWait(hop, start-now, nw.waitLink)
		nw.advance(m, d, to)
		m.arrive = start + ser + nw.cfg.HopLatency
		nw.scheduleStep(m)
		return
	}
	src, dst := int(m.src), int(m.dst)
	// A crashed destination NIC ejects nothing: the message has
	// traversed the torus (SeaStar routers forward in hardware) but
	// dies at the dead node's ejection port.
	if fi := nw.cfg.Faults; fi != nil && fi.NodeDown(dst) {
		nw.stats[dst].NodeDrops++
		nw.putMsg(m)
		return
	}
	// Ejection with the stream-overload model: the port slows down
	// when more distinct sources than StreamLimit are queued, the
	// BEER-throttling behaviour hot-spot nodes exhibit on the XT5.
	st := &nw.stats[dst]
	srcs := nw.ejSources[dst]
	if srcs == nil {
		srcs = make(map[int]int)
		nw.ejSources[dst] = srcs
	}
	srcs[src]++
	if n := len(srcs); n > st.MaxStreams {
		st.MaxStreams = n
	}
	ser := m.serNIC
	if excess := len(srcs) - nw.cfg.StreamLimit; excess > 0 {
		ser += sim.Time(float64(m.serNIC) * nw.cfg.StreamPenalty * float64(excess))
	}
	// A storm fault saturates the node's ejection path with burst
	// traffic from outside the model; every real transfer serializes
	// slower while the burst window is open.
	if fi := nw.cfg.Faults; fi != nil {
		if f := fi.StormFactor(dst); f > 1 {
			ser = sim.Time(float64(ser) * f)
		}
	}
	start := nw.ej[dst].reserve(now, ser)
	nw.noteWait(dst, start-now, nw.waitEj)
	nw.eng.AtOnArg(dst, start+ser, nw.ejectFn, m)
}

// eject completes ejection at dst: the source's stream-occupancy entry is
// retired and the message delivered (or lost, if dst crashed mid-ejection).
func (nw *Network) eject(m *msg) {
	src, dst := int(m.src), int(m.dst)
	srcs := nw.ejSources[dst]
	if srcs[src] <= 1 {
		delete(srcs, src)
	} else {
		srcs[src]--
	}
	// The node can crash mid-ejection; the partially ejected
	// message is lost with it.
	if fi := nw.cfg.Faults; fi != nil && fi.NodeDown(dst) {
		nw.stats[dst].NodeDrops++
		nw.putMsg(m)
		return
	}
	nw.finish(m)
}

// stallAt parks a message in front of the hard-failed next link on its
// route (whose from-position m.pos owns these events), re-probing every
// LinkRetry until the link repairs — at which point the walk resumes and the
// total stall time is recorded — or LinkStallLimit elapses and the message is
// dropped. Dropping instead of waiting forever keeps the event queue finite;
// the runtime's request timeouts retransmit the payload.
func (nw *Network) stallAt(m *msg, now sim.Time) {
	pos := int(m.pos)
	_, _, to, _ := nw.nextHop(m)
	if !nw.cfg.Faults.LinkDown(pos, to) {
		nw.noteWait(pos, now-m.stallSince, nw.waitStall)
		m.arrive = now
		nw.scheduleStep(m)
		return
	}
	if now-m.stallSince >= nw.cfg.LinkStallLimit {
		nw.stats[pos].Dropped++
		nw.putMsg(m)
		return
	}
	m.arrive = now + nw.cfg.LinkRetry
	nw.eng.AtOnArg(pos, m.arrive, nw.stallFn, m)
}

func (nw *Network) noteWait(pos int, w sim.Time, h *obs.Histogram) {
	if w > nw.stats[pos].MaxQueueWait {
		nw.stats[pos].MaxQueueWait = w
	}
	if h != nil {
		h.Observe(w.Micros())
	}
}

// LinkBusy returns total serialization time accumulated on all links leaving
// node, a utilization signal for tests.
func (nw *Network) LinkBusy(node int) sim.Time {
	var t sim.Time
	for d := 0; d < 6; d++ {
		t += nw.links[node*6+d].busy
	}
	return t
}

// EjectionBusy returns total serialization time at node's ejection port; the
// hot-spot node in the contention experiments shows this saturating.
func (nw *Network) EjectionBusy(node int) sim.Time { return nw.ej[node].busy }

// EjectionMsgs returns how many messages were delivered to node.
func (nw *Network) EjectionMsgs(node int) uint64 { return nw.ej[node].msgs }

// linkNames labels the six directed links leaving a torus node, lowest
// dimension first, minus direction before plus.
var linkNames = [6]string{"x-", "x+", "y-", "y+", "z-", "z+"}

// Instrument enables the fabric's observability: per-port queue-wait
// histograms (fabric_port_wait_us) are recorded during the run, and
// FillMetrics exports the aggregate counters plus per-link/NIC utilization
// of the hottest node. A nil registry leaves the network uninstrumented
// (the default); instrumentation is passive and never changes virtual time.
func (nw *Network) Instrument(reg *obs.Registry) {
	nw.reg = reg
	if reg == nil {
		nw.waitInj, nw.waitLink, nw.waitEj, nw.waitStall = nil, nil, nil, nil
		return
	}
	nw.waitInj = reg.Histogram("fabric_port_wait_us", obs.TimeBuckets, obs.L("port", "inj"))
	nw.waitLink = reg.Histogram("fabric_port_wait_us", obs.TimeBuckets, obs.L("port", "link"))
	nw.waitEj = reg.Histogram("fabric_port_wait_us", obs.TimeBuckets, obs.L("port", "ej"))
	nw.waitStall = reg.Histogram("fabric_link_stall_wait_us", obs.TimeBuckets)
}

// HottestEjection returns the node whose ejection port accumulated the most
// serialization time — the hot-spot victim in the contention experiments.
func (nw *Network) HottestEjection() int {
	hot := 0
	for n := 1; n < nw.n; n++ {
		if nw.ej[n].busy > nw.ej[hot].busy {
			hot = n
		}
	}
	return hot
}

// FillMetrics exports the network's end-of-run counters into the registry
// passed to Instrument: message/byte totals, the stream high-water mark, and
// — for the hottest ejection node — the utilization (busy fraction of
// elapsed virtual time) of its NIC injection/ejection ports and each of its
// six outgoing torus links. Call it after the simulation has run; it is a
// no-op when uninstrumented.
func (nw *Network) FillMetrics() {
	reg := nw.reg
	if reg == nil {
		return
	}
	st := nw.Stats()
	reg.Counter("fabric_messages_total").Add(float64(st.Messages))
	reg.Counter("fabric_bytes_total").Add(float64(st.Bytes))
	reg.Gauge("fabric_max_queue_wait_us").Set(st.MaxQueueWait.Micros())
	reg.Gauge("fabric_max_streams").Set(float64(st.MaxStreams))
	reg.Counter("fabric_link_stalls_total").Add(float64(st.LinkStalls))
	reg.Counter("fabric_reroutes_total").Add(float64(st.Reroutes))
	reg.Counter("fabric_dropped_msgs_total").Add(float64(st.Dropped))
	reg.Counter("fabric_node_drops_total").Add(float64(st.NodeDrops))

	elapsed := nw.eng.Now()
	util := func(busy sim.Time) float64 {
		if elapsed <= 0 {
			return 0
		}
		return float64(busy) / float64(elapsed)
	}
	hot := nw.HottestEjection()
	node := obs.L("node", fmt.Sprint(hot))
	reg.Gauge("fabric_hot_node").Set(float64(hot))
	reg.Gauge("fabric_nic_util", node, obs.L("port", "ej")).Set(util(nw.ej[hot].busy))
	reg.Gauge("fabric_nic_util", node, obs.L("port", "inj")).Set(util(nw.inj[hot].busy))
	reg.Counter("fabric_nic_ej_msgs", node).Add(float64(nw.ej[hot].msgs))
	for d := 0; d < 6; d++ {
		reg.Gauge("fabric_link_util", node, obs.L("link", linkNames[d])).
			Set(util(nw.links[hot*6+d].busy))
	}
}
