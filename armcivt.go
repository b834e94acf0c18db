// Package armcivt is a library-level reproduction of "Virtual Topologies for
// Scalable Resource Management and Contention Attenuation in a Global
// Address Space Model on the Cray XT5" (Yu, Tipparaju, Que, Vetter —
// ICPP 2011).
//
// It provides, from scratch and in pure Go:
//
//   - The paper's virtual topologies — FCG, MFCG, CFCG, Hypercube — plus
//     the generalized HyperX (k-ary n-flat) and Dragonfly families, all with
//     deadlock-free Lowest-Dimension-First (LDF) forwarding, including the
//     extended rule for partially populated meshes, cubes and flats (any
//     node count). Parameterized family members are selected with a
//     TopologySpec ("hyperx:8x8x4", "dragonfly:g=9,a=4,h=2"; see ParseSpec).
//   - An ARMCI-style one-sided runtime (per-node communication helper
//     threads, per-edge request-buffer credit pools, request forwarding,
//     put/get/accumulate/vectored/strided/fetch-&-add/lock operations).
//   - A deterministic discrete-event model of a Cray XT5-class machine
//     (3-D torus, NIC serialization, hot-spot stream throttling) so that
//     resource-management and contention experiments run at scale on a
//     laptop, in virtual time.
//   - A Global Arrays-style layer (block-distributed dense arrays, section
//     get/put/accumulate, shared task counters) and proxies for the paper's
//     applications (NAS LU, NWChem DFT and CCSD(T)).
//
// The quickest way in:
//
//	cluster, _ := armcivt.NewCluster(armcivt.Options{Nodes: 16, PPN: 4, Topology: armcivt.MFCG})
//	cluster.Alloc("data", 1<<20)
//	err := cluster.Run(func(r *armcivt.Rank) {
//	    if r.Rank() == 0 {
//	        r.Put(5, "data", 0, []byte("hello"))
//	        fmt.Printf("%s\n", r.Get(5, "data", 0, 5))
//	    }
//	})
//
// See the examples/ directory and the cmd/ binaries that regenerate every
// figure of the paper's evaluation.
package armcivt

import (
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/ga"
	"armcivt/internal/sim"
)

// Kind identifies a virtual topology.
type Kind = core.Kind

// The paper's four virtual topologies.
const (
	// FCG is the default fully connected resource graph: O(N) buffers per
	// node, depth-1 request trees.
	FCG = core.FCG
	// MFCG is the meshed fully-connected graph: O(sqrt N) buffers, at
	// most one forwarding step; the paper's recommended topology.
	MFCG = core.MFCG
	// CFCG is the cubic fully-connected graph: O(cbrt N) buffers, at most
	// two forwarding steps.
	CFCG = core.CFCG
	// Hypercube uses O(log2 N) buffers at the cost of up to log2(N)-1
	// forwarding steps; it requires a power-of-two node count.
	Hypercube = core.Hypercube
)

// The generalized families. Both subsume the paper's four as special cases
// and take optional parameters through a TopologySpec.
const (
	// HyperX is the k-ary n-flat: all-to-all links along every axis of an
	// arbitrary shape, with generalized LDF routing and partial population.
	// FCG, MFCG, CFCG and Hypercube are its 1-D, 2-D, 3-D and 2-ary points.
	HyperX = core.HyperX
	// Dragonfly groups routers into all-to-all local groups joined by
	// global links; deadlock-free without virtual channels via peak-ordered
	// routing (at most 3 hops: global, then descending local).
	Dragonfly = core.Dragonfly
)

// Topology is a virtual resource-allocation graph with LDF routing.
type Topology = core.Topology

// NewTopology constructs the standard topology of a kind over n nodes
// (near-square meshes, near-cubes, power-of-two hypercubes).
func NewTopology(kind Kind, n int) (Topology, error) { return core.New(kind, n) }

// ParseKind converts a topology name ("FCG", "mfcg", "cube", ...) to a Kind.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// TopologySpec is a parameterized topology selection: a Kind plus an
// optional explicit shape (grid families) or Dragonfly group parameters.
// The zero TopologySpec means "unset" and defers to Options.Topology.
type TopologySpec = core.Spec

// ParseSpec parses the topology-spec grammar shared by every -topo flag:
// bare kind names ("mfcg"), explicit shapes ("hyperx:8x8x4", "mfcg:32x32"),
// or Dragonfly parameters ("dragonfly:g=9,a=4,h=2").
func ParseSpec(s string) (TopologySpec, error) { return core.ParseSpec(s) }

// ParseSpecList parses a comma-separated list of topology specs; Dragonfly
// parameter fragments ("a=4") attach to the spec before them.
func ParseSpecList(s string) ([]TopologySpec, error) { return core.ParseSpecList(s) }

// Rank is one simulated application process; all one-sided operations hang
// off it. See the methods of armci.Rank: Put/Get/Acc, PutV/GetV, PutS/GetS,
// FetchAdd, Lock/Unlock, Barrier, Fence and their non-blocking Nb forms.
type Rank = armci.Rank

// Handle tracks a non-blocking operation.
type Handle = armci.Handle

// Seg is one segment of a vectored operation.
type Seg = armci.Seg

// Stats holds a run's protocol counters (requests, forwards, credit waits,
// retries, aggregation batches, ...). See armci.Stats for every field.
type Stats = armci.Stats

// AggregationConfig switches small-op aggregation (see armci.AggregationConfig).
type AggregationConfig = armci.AggregationConfig

// TimeoutError reports a one-sided operation abandoned after exhausting its
// retry budget (fault-injected runs only).
type TimeoutError = armci.TimeoutError

// NoRouteError reports a request dropped because every forwarding route to
// its target was down (fault-injected runs only).
type NoRouteError = armci.NoRouteError

// DeadlockError is returned by Run when every simulated process is blocked
// and no events remain: the job has wedged.
type DeadlockError = sim.DeadlockError

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Convenient virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// GlobalArray is a block-distributed dense 2-D float64 array (Global
// Arrays-style) living in the cluster's global address space.
type GlobalArray = ga.Array

// Matrix is the section-transfer buffer type used by GlobalArray.
type Matrix = ga.Matrix

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return ga.NewMatrix(rows, cols) }

// Counter is a shared fetch-&-add task counter (NWChem's nxtval).
type Counter = ga.Counter

// Workload characterizes an application's communication behaviour for
// Recommend.
type Workload = core.Workload

// Workload classes (see core.Recommend).
const (
	// Neighborly workloads (NAS LU-like) exchange with a fixed peer set.
	Neighborly = core.Neighborly
	// Dynamic workloads (NWChem DFT-like) create hot spots at scale.
	Dynamic = core.Dynamic
	// Bulk workloads (CCSD-like) move large blocks uniformly.
	Bulk = core.Bulk
)

// Advice is the outcome of Recommend.
type Advice = core.Advice

// RecommendOptions parameterizes Recommend. Zero fields take the paper's
// defaults, so the minimal call is
// Recommend(RecommendOptions{Nodes: n, PPN: p, Workload: w}).
type RecommendOptions struct {
	// Nodes is the number of compute nodes (required).
	Nodes int
	// PPN is processes per node (required).
	PPN int
	// Workload classifies the job's communication (default Neighborly).
	Workload Workload
	// Spec, when non-zero, pins the candidate: Recommend evaluates exactly
	// this spec against the budget instead of searching, and the returned
	// Advice carries the verdict in its Reason.
	Spec TopologySpec
	// MemBudget is bytes of communication memory available per node;
	// 0 means unlimited.
	MemBudget int64
	// BufsPerProc is the per-remote-process buffer count used to size each
	// candidate topology's pools (default 4, the paper's setting).
	BufsPerProc int
	// BufSize is the request buffer size in bytes (default 16 KB).
	BufSize int
}

// Recommend picks a virtual topology for a job following the paper's
// conclusions: FCG only when memory allows and no hot-spots are expected,
// MFCG as the general recommendation, CFCG/Hypercube under growing memory
// pressure — and, when none of the paper's four fits the budget, the
// generalized HyperX/Dragonfly frontier (higher-dimensional flats trade
// forwarding hops for smaller pools). With o.Spec set it evaluates that one
// candidate instead (see EvaluateSpec).
func Recommend(o RecommendOptions) Advice {
	if o.BufsPerProc == 0 {
		o.BufsPerProc = 4
	}
	if o.BufSize == 0 {
		o.BufSize = 16 << 10
	}
	if !o.Spec.IsZero() {
		a, err := core.Evaluate(o.Spec, o.Nodes, o.PPN, o.MemBudget, o.BufsPerProc, o.BufSize)
		if err != nil {
			return Advice{Kind: o.Spec.Kind, Spec: o.Spec,
				Reason: "requested spec is infeasible: " + err.Error()}
		}
		return a
	}
	return core.Recommend(o.Nodes, o.PPN, o.MemBudget, o.Workload, o.BufsPerProc, o.BufSize)
}

// EvaluateSpec reports the Advice for one explicit topology spec — its
// buffer footprint, hop bound, and whether it fits the budget — instead of
// searching the families. The error is non-nil when the spec cannot host
// o.Nodes at all.
func EvaluateSpec(spec TopologySpec, o RecommendOptions) (Advice, error) {
	if o.BufsPerProc == 0 {
		o.BufsPerProc = 4
	}
	if o.BufSize == 0 {
		o.BufSize = 16 << 10
	}
	return core.Evaluate(spec, o.Nodes, o.PPN, o.MemBudget, o.BufsPerProc, o.BufSize)
}

// Options configures a simulated cluster. Zero fields take defaults
// (DefaultConfig in package armci documents the full calibration).
type Options struct {
	// Nodes is the number of compute nodes (required).
	Nodes int
	// PPN is processes per node (required).
	PPN int
	// Topology selects the virtual topology (default FCG).
	Topology Kind
	// Spec, when non-zero, selects a parameterized family member
	// ("hyperx:8x8x4", "dragonfly:g=9,a=4,h=2") and takes precedence over
	// Topology. Parse one from the shared grammar with ParseSpec.
	Spec TopologySpec
	// CustomTopology overrides both with an explicit instance (e.g. a
	// skewed mesh from core.NewMesh).
	CustomTopology Topology
	// BufSize is the request buffer size in bytes (default 16 KB).
	BufSize int
	// BufsPerProc is the number of buffers per remote process (default 4).
	BufsPerProc int
	// Seed reseeds the engine RNG for workloads that draw from it;
	// simulations are deterministic either way. The zero value keeps the
	// engine's default seed unless SeedSet is true.
	Seed int64
	// SeedSet forces Seed to be applied even when it is 0, so an explicit
	// zero seed is distinguishable from "unset" (matching the semantics of
	// every Seed knob in this module).
	SeedSet bool
	// Aggregation configures small-op aggregation on the runtime's hot
	// path (off unless Enabled; see armci.AggregationConfig).
	Aggregation AggregationConfig
}

// Cluster is a simulated ARMCI job: a runtime plus its virtual-time engine.
type Cluster struct {
	eng    *sim.Engine
	rt     *armci.Runtime
	closed bool
}

// NewCluster builds a cluster from options.
func NewCluster(opt Options) (*Cluster, error) {
	eng := sim.New()
	if opt.SeedSet || opt.Seed != 0 {
		eng.Seed(opt.Seed)
	}
	cfg := armci.DefaultConfig(opt.Nodes, opt.PPN)
	if opt.CustomTopology != nil {
		cfg.Topology = opt.CustomTopology
	} else {
		spec := opt.Spec
		if spec.IsZero() {
			spec = core.Spec{Kind: opt.Topology}
		}
		topo, err := spec.Build(opt.Nodes)
		if err != nil {
			return nil, err
		}
		cfg.Topology = topo
	}
	if opt.BufSize != 0 {
		cfg.BufSize = opt.BufSize
	}
	if opt.BufsPerProc != 0 {
		cfg.BufsPerProc = opt.BufsPerProc
	}
	cfg.Agg = opt.Aggregation
	rt, err := armci.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{eng: eng, rt: rt}, nil
}

// Alloc registers a named global allocation of bytes per rank.
func (c *Cluster) Alloc(name string, bytes int) { c.rt.Alloc(name, bytes) }

// NewGlobalArray registers a rows x cols global array before Run.
func (c *Cluster) NewGlobalArray(name string, rows, cols int) *GlobalArray {
	return ga.Create(c.rt, name, rows, cols)
}

// NewCounter registers a shared task counter hosted on the given rank.
func (c *Cluster) NewCounter(name string, owner int) *Counter {
	return ga.NewCounter(c.rt, name, owner)
}

// Group is a processor group (Global Arrays pgroup style) with its own
// barrier and collectives.
type Group = armci.Group

// NewGroup registers a processor group over the given ranks before Run.
func (c *Cluster) NewGroup(name string, ranks []int) *Group {
	return c.rt.NewGroup(name, ranks)
}

// Run executes body SPMD-style on every rank and drives the simulation to
// completion. It returns a *DeadlockError if the job wedges.
func (c *Cluster) Run(body func(r *Rank)) error { return c.rt.Run(body) }

// RunStats is Run plus the job's end-of-run counters, for callers that want
// both without a second Stats() call.
func (c *Cluster) RunStats(body func(r *Rank)) (Stats, error) {
	err := c.rt.Run(body)
	return c.rt.Stats(), err
}

// Close releases the simulation's remaining goroutines (helper-thread
// daemons, blocked ranks). Call it when done with the cluster in programs
// that create many of them; the cluster must not be running. Close is
// idempotent: extra calls are no-ops.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.rt.Shutdown()
}

// NRanks returns Nodes * PPN.
func (c *Cluster) NRanks() int { return c.rt.NRanks() }

// Topology returns the virtual topology in use.
func (c *Cluster) Topology() Topology { return c.rt.Topology() }

// Now returns the cluster's virtual clock.
func (c *Cluster) Now() Time { return c.eng.Now() }

// MasterRSS models the master process's resident set size on a node, the
// quantity Figure 5 of the paper plots.
func (c *Cluster) MasterRSS(node int) int64 { return c.rt.MasterRSS(node) }

// Runtime exposes the underlying runtime for advanced use (stats, memory
// model, direct fabric access).
func (c *Cluster) Runtime() *armci.Runtime { return c.rt }

// Stats returns runtime counters (requests, forwards, credit waits, ...).
func (c *Cluster) Stats() Stats { return c.rt.Stats() }

// Fabric returns the physical network model's configuration.
func (c *Cluster) Fabric() fabric.Config { return c.rt.Network().Config() }
