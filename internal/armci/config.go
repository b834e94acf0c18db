// Package armci implements a from-scratch Global Address Space runtime
// modeled on ARMCI (Aggregate Remote Memory Copy Interface), running on the
// simulated Cray XT5 substrate (packages sim and fabric) and parameterized by
// a virtual topology (package core).
//
// The runtime reproduces the protocol structure the paper studies:
//
//   - Every node runs one Communication Helper Thread (CHT) that serves
//     one-sided requests on behalf of all processes on the node.
//   - For every directed edge of the virtual topology, the receiving node
//     pre-allocates a set of request buffers (BufsPerProc per remote
//     process, each BufSize bytes); senders consume credits against those
//     pools, which is both the memory cost Figure 5 measures and the flow
//     control that makes forwarding deadlocks possible.
//   - Requests between nodes that are not directly connected are forwarded
//     by intermediate CHTs along the LDF route; the target responds directly
//     to the origin, and each intermediate returns the upstream buffer
//     credit once it has secured a downstream one.
//
// One-sided operations cover the set the paper evaluates: contiguous and
// vectored/strided put and get, accumulate, atomic read-modify-write
// (fetch-&-add), lock/unlock mutexes, plus barrier and fence.
package armci

import (
	"fmt"
	"math"

	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// Wire-format constants (bytes).
const (
	headerBytes  = 64 // request header
	segDescBytes = 16 // per-segment descriptor in vector requests
	ackBytes     = 32 // credit-return message
	respBytes    = 64 // response header (payload added for get/rmw)
	// batchOpBytes is the per-sub-operation descriptor inside a multi-op
	// batch packet: aggregation collapses each sub-op's 64-byte request
	// header down to this.
	batchOpBytes = 16
)

// Config parameterizes a Runtime. The zero value of any field is replaced by
// its default (DefaultConfig documents them).
type Config struct {
	// Nodes is the number of compute nodes (the paper's experiments use up
	// to 256 for contention, 1024 for memory scaling).
	Nodes int
	// PPN is the number of application processes per node (paper: 4 for
	// Figs 6-7, 12 for Figs 5 and 8-9, matching Jaguar's 12-core nodes).
	PPN int
	// Topology is the virtual topology; nil selects FCG over Nodes.
	Topology core.Topology
	// Shards is the number of conservative-parallel shards the simulation
	// kernel partitions the node space into (0 and 1 both select serial
	// execution). Results are bit-identical for every shard count — the
	// determinism contract docs/PARALLELISM.md specifies and the regression
	// tests enforce — so Shards is purely a wall-clock knob. Incompatible
	// with Trace (the Chrome tracer is single-writer).
	Shards int
	// BufSize is the size of one request buffer in bytes (paper: 16 KB).
	// With BufsPerProc it sets the topology-dependent memory term of
	// Figure 5 and the chunk size large transfers are split into.
	BufSize int
	// BufsPerProc is the number of request buffers dedicated to each
	// remote process on a connected node (paper: 4). The credit pool per
	// directed edge is PPN * BufsPerProc; the buffer-depth ablation in
	// DESIGN.md §5 sweeps this knob.
	BufsPerProc int
	// Fabric configures the physical torus network.
	Fabric fabric.Config

	// CHTBaseOverhead is the fixed per-request handling cost at a CHT, in
	// virtual time (default 600 ns). It anchors the uncontended
	// per-operation latency floor of Figs 6-7.
	CHTBaseOverhead sim.Time
	// CHTPollPerSource is the extra per-request cost, in virtual time per
	// distinct upstream peer with requests pending (default 30 ns): the
	// helper thread polls one buffer set per connected peer, so hot CHTs
	// on high-degree topologies pay more per request. This constant
	// drives the FCG hot-node degradation of Figs 6b/c and 7b/c.
	CHTPollPerSource sim.Time
	// CHTPollCap bounds the number of peers charged per request (the
	// poll sweep is amortized once the backlog is deep), keeping the
	// degradation of a flat-tree hot node large but finite. Unitless
	// count (default 128).
	CHTPollCap int
	// CHTForwardOverhead is the extra cost of forwarding a request to the
	// next virtual-topology hop, in virtual time (default 8 us):
	// descriptor setup, downstream credit bookkeeping and re-injection
	// are far more expensive than applying a small operation locally.
	// This is the per-hop price of topology dimension — the gap between
	// curves in uncontended Figs 6a/7a and the Hypercube loss of Fig 9a.
	CHTForwardOverhead sim.Time
	// CHTPerByte is the CHT's memory-copy cost per payload byte, in
	// ns/byte (default 0.25, i.e. 4 GB/s). It scales the vectored-put
	// service time of Fig 6.
	CHTPerByte float64
	// LocalLatency is the fixed cost of a same-node (shared-memory)
	// operation, in virtual time (default 200 ns).
	LocalLatency sim.Time
	// LocalPerByte is the same-node copy cost, in ns/byte (default 0.25).
	LocalPerByte float64
	// BarrierStep is the per-tree-level cost of a barrier, in virtual
	// time (default 1.5 us); barriers fence every figure's phases.
	BarrierStep sim.Time

	// BaseRSSBytes is the per-process resident set in bytes before any
	// communication buffers — the 612 MB base of Figure 5, measured on
	// Jaguar.
	BaseRSSBytes int64
	// ConnBytes is the per-remote-process connection metadata in bytes
	// (Portals descriptors, bookkeeping) the master process keeps per
	// edge; with the buffer term it completes the Figure 5 memory model.
	ConnBytes int64
	// Mutexes is the number of ARMCI mutexes, distributed round-robin
	// across nodes (unitless count).
	Mutexes int
	// Faults, when non-nil, injects the spec's link and CHT failures into
	// the run: the fabric stalls and reroutes around failed links, CHT
	// forwarding detours around stalled helper threads, and the resilience
	// knobs below default to non-zero values so traffic recovers. Nil (the
	// default) leaves every protocol path bit-identical to the fault-free
	// runtime. See docs/FAULTS.md.
	Faults *faults.Injector
	// RequestTimeout is how long the origin waits for a request chunk to
	// complete before retransmitting it (0 disables; defaults to
	// DefaultRequestTimeout when Faults is set). Retransmits are
	// deduplicated at the target by request id, so at-most-once apply
	// semantics survive both lost requests and lost responses.
	RequestTimeout sim.Time
	// MaxRetries bounds retransmissions per chunk; the chunk then fails
	// with a TimeoutError on its Handle rather than wedging the rank. Each
	// retransmission doubles the timeout (retryBackoff).
	MaxRetries int
	// CreditTimeout is how long an egress with parked sends may go without
	// transmitting before it assumes a credit ack was lost on a failed
	// link and regenerates one credit (0 disables; defaults to 2 ms when
	// Faults is set). Late real acks are swallowed against the regeneration
	// debt so the pool never exceeds its capacity.
	CreditTimeout sim.Time

	// Heal configures heartbeat membership and online topology self-healing
	// for crash-stop node faults (node: entries in a fault spec). The
	// machinery only arms when Heal.Enabled is set AND the fault schedule
	// contains node faults, so every other run — including link/CHT-faulted
	// ones — stays bit-identical. See HealConfig and docs/FAULTS.md.
	Heal HealConfig

	// Agg configures small-op aggregation on the CHT hot path: same-target
	// small operations coalesce into one multi-op request packet that
	// consumes a single buffer credit and a single NIC injection. The zero
	// value (disabled) leaves every protocol path bit-identical to the
	// unaggregated runtime. See AggregationConfig.
	Agg AggregationConfig

	// Metrics, when non-nil, enables the observability layer: the runtime
	// records credit-pool wait times, CHT inbox depths and per-node CHT
	// activity during the run (and instruments the fabric with the same
	// registry); FillMetrics exports the end-of-run snapshot. Nil (the
	// default) costs only nil checks and leaves virtual-time results
	// bit-identical. Schema: docs/OBSERVABILITY.md.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one Chrome-trace span per CHT service
	// or forward (category "cht", tid = node id) in virtual time.
	Trace *obs.Tracer
	// TracePID is the trace process id spans are emitted under, letting
	// several runs share one trace file (one run per pid).
	TracePID int
}

// AggregationConfig switches the small-op aggregation engine.
//
// Aggregation reshapes hot-spot traffic before it reaches shared buffers:
// small Put/PutV/Acc/AccV/FetchAdd requests bound for the same target node
// coalesce into one multi-op batch packet. Batches form at two boundaries:
//
//   - Credit boundary: sends parked on an egress waiting for a buffer
//     credit merge when a credit frees, so a contended edge moves its
//     backlog in far fewer packets (one credit, one injection, one CHT
//     service per batch instead of per op). Uncontended edges transmit
//     immediately and never aggregate, so the uncontended latency floor is
//     unchanged.
//   - Size boundary: a batch never exceeds aggMaxOps sub-operations or one
//     request buffer (BufSize) on the wire — the same M-bounded buffer
//     rule that caps forwarding depth (D <= M) caps re-aggregation at
//     intermediate hops, so a forwarded batch always fits the next edge's
//     buffers without re-splitting.
//
// Origin-side nonblocking operations additionally aggregate per rank before
// injection, flushed on the size boundary and on every Wait, Fence, Barrier
// or same-target non-batchable operation (so per-target issue order is
// preserved). Blocking operations wait immediately and therefore only ever
// aggregate at the credit boundary.
//
// The CHT unpacks a batch at its target and applies the sub-operations
// back-to-back in rid order — atomically in virtual time, since the helper
// thread is serial — so at-most-once dedup (per-sub request ids) and LDF
// forwarding semantics are exactly those of unaggregated traffic. The
// engine's tuning values are model constants in agg.go.
type AggregationConfig struct {
	// Enabled turns aggregation on. Off (the default) is bit-identical to
	// the pre-aggregation protocol.
	Enabled bool
}

// HealConfig switches crash-stop failure detection and recovery.
//
// Detection is ring observation over the lines of the virtual topology
// (core.Lines): every heartbeatInterval each node sends one small
// creditless heartbeat to its next live member on each line and judges its
// previous live member there, by the last instant it heard from it —
// heartbeats plus every piggybacked protocol message (request arrivals,
// credit acks, notices) count. A judged member silent for suspicionTimeout
// is suspected; silent for twice that, it is confirmed dead, within
// DetectionBound of its crash, and the observer notifies the rest of the
// line in one hop. Hearing from a dead-held neighbor again means it
// recovered: the survivor reinstates it with a fresh credit pool and tells
// the line; a rebooting node announces itself to every neighbor.
//
// On confirmation or notice each survivor heals locally, with no extra protocol
// round: sends parked on the dead edge are replayed through a
// deterministically elected replacement forwarder (core.ReplacementHop —
// the first live hop of Topology.Hop), ops with no live route fail their
// handles with *NodeFailedError, and the dead edge's outstanding credits are
// written off against regeneration debt so late acks can never overflow
// the pool. Retransmissions of in-flight chunks
// recompute their route per attempt and heal automatically.
type HealConfig struct {
	// Enabled arms the membership monitor and self-healing when the fault
	// schedule contains node: faults. Off (the default) changes nothing.
	Enabled bool
}

// Resilience defaults for the settable knobs, applied when Config.Faults is
// set.
const (
	DefaultRequestTimeout = 2 * sim.Millisecond
	defaultMaxRetries     = 6
	defaultCreditTimeout  = 2 * sim.Millisecond
)

// DefaultConfig returns the calibration used throughout the repository:
// paper-specified protocol constants (16 KB buffers, 4 per process) and
// XT5-flavoured costs.
func DefaultConfig(nodes, ppn int) Config {
	return Config{
		Nodes:              nodes,
		PPN:                ppn,
		BufSize:            16 << 10,
		BufsPerProc:        4,
		Fabric:             fabric.DefaultConfig(nodes),
		CHTBaseOverhead:    600 * sim.Nanosecond,
		CHTPollPerSource:   30 * sim.Nanosecond,
		CHTPollCap:         128,
		CHTForwardOverhead: 8 * sim.Microsecond,
		CHTPerByte:         0.25,
		LocalLatency:       200 * sim.Nanosecond,
		LocalPerByte:       0.25,
		BarrierStep:        1500 * sim.Nanosecond,
		BaseRSSBytes:       612 << 20,
		ConnBytes:          4 << 10,
		Mutexes:            64,
	}
}

// Validate checks the configuration for values no defaulting can repair:
// non-positive extents, negative costs or budgets, a pace floor above the
// pace ceiling, and a topology that does not cover the node count. Zero
// fields are legal (they select defaults);
// New and MustNew call Validate after defaulting, and callers building
// configurations programmatically can invoke it early for a better error.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("armci: Nodes must be positive, got %d", c.Nodes)
	}
	if c.PPN <= 0 {
		return fmt.Errorf("armci: PPN must be positive, got %d", c.PPN)
	}
	// Request records hold rank ids and chunk sizes as int32.
	if c.Nodes > math.MaxInt32/c.PPN {
		return fmt.Errorf("armci: Nodes*PPN must be below 2^31, got %d*%d", c.Nodes, c.PPN)
	}
	if c.BufSize != 0 && c.BufSize < 256 {
		return fmt.Errorf("armci: BufSize %d too small (need >= 256 for headers)", c.BufSize)
	}
	if c.BufSize > math.MaxInt32 {
		return fmt.Errorf("armci: BufSize %d too large (need < 2^31)", c.BufSize)
	}
	if c.BufsPerProc < 0 {
		return fmt.Errorf("armci: BufsPerProc must not be negative, got %d", c.BufsPerProc)
	}
	for _, f := range []struct {
		name string
		v    sim.Time
	}{
		{"CHTBaseOverhead", c.CHTBaseOverhead},
		{"CHTPollPerSource", c.CHTPollPerSource},
		{"CHTForwardOverhead", c.CHTForwardOverhead},
		{"LocalLatency", c.LocalLatency},
		{"BarrierStep", c.BarrierStep},
		{"RequestTimeout", c.RequestTimeout},
		{"CreditTimeout", c.CreditTimeout},
		{"Fabric.HopLatency", c.Fabric.HopLatency},
		{"Fabric.SoftwareOverhead", c.Fabric.SoftwareOverhead},
		{"Fabric.LinkRetry", c.Fabric.LinkRetry},
		{"Fabric.LinkStallLimit", c.Fabric.LinkStallLimit},
	} {
		if f.v < 0 {
			return fmt.Errorf("armci: %s must not be negative, got %v", f.name, f.v)
		}
	}
	if c.Fabric.LinkBandwidth < 0 || c.Fabric.NICBandwidth < 0 || c.Fabric.StreamPenalty < 0 {
		return fmt.Errorf("armci: Fabric rates must not be negative (LinkBandwidth=%g, NICBandwidth=%g, StreamPenalty=%g)",
			c.Fabric.LinkBandwidth, c.Fabric.NICBandwidth, c.Fabric.StreamPenalty)
	}
	if c.Fabric.StreamLimit < 0 {
		return fmt.Errorf("armci: Fabric.StreamLimit must not be negative, got %d", c.Fabric.StreamLimit)
	}
	if c.CHTPerByte < 0 || c.LocalPerByte < 0 {
		return fmt.Errorf("armci: per-byte costs must not be negative (CHTPerByte=%g, LocalPerByte=%g)",
			c.CHTPerByte, c.LocalPerByte)
	}
	if c.CHTPollCap < 0 || c.Mutexes < 0 || c.MaxRetries < 0 {
		return fmt.Errorf("armci: counts must not be negative (CHTPollCap=%d, Mutexes=%d, MaxRetries=%d)",
			c.CHTPollCap, c.Mutexes, c.MaxRetries)
	}
	if c.Shards < 0 {
		return fmt.Errorf("armci: Shards must not be negative, got %d", c.Shards)
	}
	if c.Shards > 1 && c.Trace != nil {
		return fmt.Errorf("armci: Trace requires serial execution (Shards <= 1), got Shards=%d", c.Shards)
	}
	if c.BaseRSSBytes < 0 || c.ConnBytes < 0 {
		return fmt.Errorf("armci: memory-model bytes must not be negative (BaseRSSBytes=%d, ConnBytes=%d)",
			c.BaseRSSBytes, c.ConnBytes)
	}
	if c.Topology != nil && c.Topology.Nodes() != c.Nodes {
		return fmt.Errorf("armci: topology covers %d nodes, runtime has %d", c.Topology.Nodes(), c.Nodes)
	}
	return nil
}

// withDefaults fills zero fields from DefaultConfig and validates.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	d := DefaultConfig(c.Nodes, c.PPN)
	if c.BufSize == 0 {
		c.BufSize = d.BufSize
	}
	if c.BufsPerProc == 0 {
		c.BufsPerProc = d.BufsPerProc
	}
	if c.CHTBaseOverhead == 0 {
		c.CHTBaseOverhead = d.CHTBaseOverhead
	}
	if c.CHTPollPerSource == 0 {
		c.CHTPollPerSource = d.CHTPollPerSource
	}
	if c.CHTPollCap == 0 {
		c.CHTPollCap = d.CHTPollCap
	}
	if c.CHTForwardOverhead == 0 {
		c.CHTForwardOverhead = d.CHTForwardOverhead
	}
	if c.CHTPerByte == 0 {
		c.CHTPerByte = d.CHTPerByte
	}
	if c.LocalLatency == 0 {
		c.LocalLatency = d.LocalLatency
	}
	if c.LocalPerByte == 0 {
		c.LocalPerByte = d.LocalPerByte
	}
	if c.BarrierStep == 0 {
		c.BarrierStep = d.BarrierStep
	}
	if c.BaseRSSBytes == 0 {
		c.BaseRSSBytes = d.BaseRSSBytes
	}
	if c.ConnBytes == 0 {
		c.ConnBytes = d.ConnBytes
	}
	if c.Mutexes == 0 {
		c.Mutexes = d.Mutexes
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Topology == nil {
		c.Topology = core.MustNew(core.FCG, c.Nodes)
	}
	// Fault injection turns the resilience machinery on by default; without
	// it the knobs stay at zero (disabled) unless set explicitly.
	if c.Faults != nil {
		if c.RequestTimeout == 0 {
			c.RequestTimeout = DefaultRequestTimeout
		}
		if c.CreditTimeout == 0 {
			c.CreditTimeout = defaultCreditTimeout
		}
	}
	if c.RequestTimeout > 0 && c.MaxRetries == 0 {
		c.MaxRetries = defaultMaxRetries
	}
	return c, nil
}
