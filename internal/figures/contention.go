package figures

import (
	"fmt"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

// ContentionOp selects the one-sided operation of the microbenchmark.
type ContentionOp int

const (
	// OpVectoredPut is the noncontiguous data-transfer benchmark (Fig 6).
	OpVectoredPut ContentionOp = iota
	// OpFetchAdd is the atomic fetch-&-add benchmark (Fig 7).
	OpFetchAdd
)

func (o ContentionOp) String() string {
	if o == OpFetchAdd {
		return "fetch-add"
	}
	return "vectored-put"
}

// ContentionConfig sizes one run of the Section V-B microbenchmark: every
// process (except rank 0's node) takes a turn performing Iters one-sided
// operations to rank 0 while ContenderEvery-th processes hammer rank 0
// continuously.
type ContentionConfig struct {
	Kind core.Kind
	// Topo, when non-zero, selects a parameterized topology spec (shape or
	// group parameters) and takes precedence over Kind. The zero Spec defers
	// to Kind, keeping every pre-existing config literal bit-identical.
	Topo  core.Spec
	Nodes int // paper: 256
	PPN   int // paper: 4
	Iters int // paper: 20
	// ContenderEvery selects hot-spot pressure: 0 = no contention,
	// 9 = 11% contention, 5 = 20% contention (paper's three scenarios).
	ContenderEvery int
	Op             ContentionOp
	// VecSegs x VecSegLen defines the vectored payload (default 32 x 256B).
	VecSegs, VecSegLen int
	// SampleEvery measures every k-th eligible rank (default 1 = all), a
	// simulation-cost knob that subsamples the x-axis without changing
	// per-point behaviour.
	SampleEvery int
	// StreamLimit overrides the NIC stream limit (0 keeps the fabric
	// default). Scaled-down runs shrink it proportionally so the ratio of
	// contending sources to hardware streams matches the paper-scale
	// experiment.
	StreamLimit int
	// Seed reseeds the engine's deterministic RNG (0 keeps the default
	// seed, bit-identical to all pre-sweep releases). Two runs with the
	// same config and seed produce identical results; sweeps vary Seed to
	// get independent repetitions.
	Seed int64
	// Window pipelines each process's operations: Window nonblocking
	// operations in flight before a WaitAll, repeated until Iters are
	// issued. 0 or 1 keeps the classic blocking loop (bit-identical to
	// all earlier releases). A window is the workload that exposes
	// aggregation — the paper's "many small requests each burning one
	// credit and one NIC injection" — and is applied identically whether
	// Aggregation is on or off, so the two runs differ only in protocol.
	Window int
	// Aggregation enables small-op aggregation in the runtime under test
	// (armci.Config.Agg with defaults): same-target small operations
	// coalesce into multi-op packets at credit and flush boundaries. The
	// workload shape is unchanged — only the protocol under it.
	Aggregation bool
	// Shards runs the simulation kernel conservatively in parallel across
	// this many topology-aware shards (armci.Config.Shards). Results are
	// bit-identical for every value; 0 or 1 keeps the serial kernel. When
	// Trace is set the run is forced serial (tracing is a serial-only
	// observation tool), which by the same contract changes nothing.
	Shards int

	// Metrics, when non-nil, collects the run's observability counters,
	// gauges and histograms (see docs/OBSERVABILITY.md). Use a fresh
	// registry per run: metric names carry no topology label, so sharing
	// one registry across runs merges their numbers.
	Metrics *obs.Registry
	// Trace, when non-nil, receives CHT service/forward spans as
	// Chrome-trace events. One Tracer may be shared across runs; give each
	// run a distinct TracePID to keep them apart in the viewer.
	Trace *obs.Tracer
	// TracePID is the trace process id identifying this run in a combined
	// trace file (ignored when Trace is nil).
	TracePID int
	// TraceSched additionally records every scheduler run-slice of every
	// simulated process (verbose; multiplies trace volume several-fold).
	TraceSched bool

	// Faults, when non-nil, injects the fault schedule into the run (see
	// docs/FAULTS.md): links fail, degrade or flap, CHTs stall, nodes
	// crash-stop, the armci layer turns on request timeouts/retries and
	// credit regeneration, and a deadlock watchdog aborts a wedged run with
	// an *armci.StallError. Nil keeps the run bit-identical to the
	// fault-free pipeline.
	Faults *faults.Spec
	// Heal enables heartbeat membership and online topology self-healing
	// (armci.Config.Heal with defaults). It only takes effect when Faults
	// contains node: entries; otherwise the run is bit-identical with the
	// flag on or off.
	Heal bool
}

func (c ContentionConfig) withDefaults() ContentionConfig {
	if c.Nodes == 0 {
		c.Nodes = 256
	}
	if c.PPN == 0 {
		c.PPN = 4
	}
	if c.Iters == 0 {
		c.Iters = 20
	}
	if c.VecSegs == 0 {
		c.VecSegs = 32
	}
	if c.VecSegLen == 0 {
		c.VecSegLen = 256
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 1
	}
	return c
}

// Contention runs the microbenchmark and returns average per-operation time
// (microseconds) per measured process rank.
func Contention(c ContentionConfig) (*stats.Series, error) {
	c = c.withDefaults()
	spec := specOf(c.Kind, c.Topo)
	contend := "no contention"
	if c.ContenderEvery > 0 {
		contend = fmt.Sprintf("1-in-%d contending", c.ContenderEvery)
	}
	// A faulted schedule can livelock on retry churn; the fault schedule arms
	// the watchdog, which turns that into a Run error with a blocked-process
	// report instead of a wall-clock hang.
	rt, err := run{
		spec: spec, nodes: c.Nodes, ppn: c.PPN, seed: c.Seed, shards: c.Shards, faults: c.Faults,
		metrics: c.Metrics, trace: c.Trace, tracePID: c.TracePID, traceSched: c.TraceSched,
	}.start(fmt.Sprintf("contention %v %v, %s", c.Op, spec, contend), func(cfg *armci.Config) {
		if c.StreamLimit > 0 {
			cfg.Fabric.StreamLimit = c.StreamLimit
		}
		cfg.Agg.Enabled = c.Aggregation
		cfg.Heal.Enabled = c.Heal
	})
	if err != nil {
		return nil, err
	}
	// Release every parked goroutine (CHT daemons outlive the run) once the
	// simulation is over: a sweep executes thousands of engines per process
	// and would otherwise accumulate them.
	defer rt.Shutdown()
	eng := rt.Engine()
	// Rank 0's window: disjoint slots per origin so vectored puts never
	// overlap semantically.
	n := rt.NRanks()
	slot := c.VecSegs * c.VecSegLen * 2
	rt.Alloc("hot", 8+n*slot)

	// Out-of-band coordination, standing in for the paper's "all other
	// processes are idle in a barrier": turn[i] admits measured rank i;
	// finished fires when the last measured rank is done.
	turn := make(map[int]*sim.Event)
	var order []int
	for rank := c.PPN; rank < n; rank += c.SampleEvery { // skip node 0
		turn[rank] = sim.NewEvent(eng, fmt.Sprintf("turn%d", rank))
		order = append(order, rank)
	}
	finished := sim.NewEvent(eng, "finished")
	// next hands the token to the following measured rank. It is called from
	// rank context, but the next rank may live on another shard, so the Fire
	// is routed through a global event (one fabric lookahead later — the same
	// instant in serial and sharded runs).
	next := func(r *armci.Rank) {
		rank := r.Rank()
		eng.AtGlobal(r.Node(), func() {
			for i, v := range order {
				if v == rank {
					if i+1 < len(order) {
						turn[order[i+1]].Fire()
					} else {
						finished.Fire()
					}
					return
				}
			}
		})
	}
	eng.At(0, func() {
		if len(order) == 0 {
			finished.Fire()
		} else {
			turn[order[0]].Fire()
		}
	})

	series := &stats.Series{Label: spec.String()}
	// Per-rank measurement slots: each rank writes only its own index from
	// its own owner context, so sharded runs never contend.
	times := make([]float64, n)
	measured := make([]bool, n)

	window := max(c.Window, 1)
	// A vectored put only reads its segments and data, so every op of a rank
	// reuses that rank's segment list (built at its first op, in its own
	// owner context) and every rank sends the same read-only zero payload.
	var zeros []byte
	var rankSegs [][]armci.Seg
	if c.Op != OpFetchAdd {
		zeros = make([]byte, c.VecSegs*c.VecSegLen)
		rankSegs = make([][]armci.Seg, n)
	}
	segsOf := func(r *armci.Rank) []armci.Seg {
		segs := rankSegs[r.Rank()]
		if segs == nil {
			base := 8 + r.Rank()*slot
			segs = make([]armci.Seg, c.VecSegs)
			for i := range segs {
				segs[i] = armci.Seg{Off: base + i*c.VecSegLen*2, Len: c.VecSegLen}
			}
			rankSegs[r.Rank()] = segs
		}
		return segs
	}
	nbOp := func(r *armci.Rank) *armci.Handle {
		switch c.Op {
		case OpFetchAdd:
			return r.NbFetchAdd(0, "hot", 0, 1)
		default:
			return r.NbPutV(0, "hot", segsOf(r), zeros)
		}
	}
	// doOps issues count operations: blocking one-by-one with no window,
	// otherwise pipelined in nonblocking windows completed by WaitAll.
	doOps := func(r *armci.Rank, count int) {
		if window <= 1 {
			for k := 0; k < count; k++ {
				switch c.Op {
				case OpFetchAdd:
					r.FetchAdd(0, "hot", 0, 1)
				default:
					r.PutV(0, "hot", segsOf(r), zeros)
				}
			}
			return
		}
		hs := make([]*armci.Handle, 0, window)
		for k := 0; k < count; k += window {
			w := min(window, count-k)
			hs = hs[:0]
			for j := 0; j < w; j++ {
				hs = append(hs, nbOp(r))
			}
			r.WaitAll(hs...)
		}
	}
	measure := func(r *armci.Rank) {
		t0 := r.Now()
		doOps(r, c.Iters)
		times[r.Rank()] = (r.Now() - t0).Micros() / float64(c.Iters)
		measured[r.Rank()] = true
		next(r)
	}

	body := func(r *armci.Rank) {
		if r.Node() == 0 {
			return // rank 0 is the target; its node-mates stay idle
		}
		isContender := c.ContenderEvery > 0 && r.Rank()%c.ContenderEvery == 0
		ev := turn[r.Rank()]
		if !isContender {
			if ev == nil {
				return // unsampled, idle "in a barrier"
			}
			ev.Wait(r.Proc())
			measure(r)
			return
		}
		// Contenders hammer rank 0 for the whole experiment, taking their
		// measured turn in stride.
		for !finished.Fired() {
			if ev != nil && ev.Fired() {
				measure(r)
				ev = nil
				continue
			}
			doOps(r, window)
		}
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}
	rt.FillMetrics()
	for _, rank := range order {
		if measured[rank] {
			series.Add(float64(rank), times[rank])
		}
	}
	return series, nil
}
