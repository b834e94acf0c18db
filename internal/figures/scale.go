package figures

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// ScaleConfig sizes one run of the large-N scaling harness: the Fig 5/6
// workload shape (an incast of vectored puts into rank 0) held at a fixed
// small active set while the node count grows to 5-6 digits, so what is
// measured is the per-node cost of *existing* — the runtime state arenas,
// the credit pools — plus the protocol's allocation rate on the hot path,
// not an ever-growing traffic volume.
//
// The harness underlies docs/SCALING.md: live bytes bound the footprint
// claims (TestScaleFootprint), AllocsPerOp is the allocs/op contract
// TestScaleAllocsCeiling enforces, and Fingerprint is pinned by the scale
// tests.
type ScaleConfig struct {
	// Nodes is the simulated node count; the harness runs on a Hypercube,
	// so it must be a power of two (the only standard topology whose
	// degree stays logarithmic at 64k nodes — FCG's N-1 and even MFCG's
	// ~2*sqrt(N) edges are infeasible per-node state at this scale) and at
	// least 2, one target plus one active (default 1024).
	Nodes int
	// Seed reseeds the engine's deterministic RNG (0 keeps the default).
	Seed int64
	// Measure takes runtime.MemStats snapshots around the measured phase
	// (from the start gate to the last active's completion) to fill
	// MallocsDelta/AllocsPerOp/LiveBytes. Snapshots are taken in global
	// events and never perturb virtual time.
	Measure bool
}

// The scaling workload's shape.
const (
	// scaleActives is how many source ranks perform the incast (capped at
	// Nodes-1). Everyone else exits immediately, standing in for the
	// paper's "all other processes idle in a barrier".
	scaleActives = 64
	// scaleIters is the number of vectored puts each active rank issues.
	scaleIters = 16
	// scaleWindow pipelines each active's puts: scaleWindow nonblocking
	// operations in flight before a WaitAll.
	scaleWindow = 4
	// scaleSegs x scaleSegLen defines the vectored payload — small on
	// purpose: the hot path under test is protocol bookkeeping, not byte
	// copying.
	scaleSegs, scaleSegLen = 8, 64
)

// ScaleResult is one scaling point: the workload identity, the virtual-time
// outcome, and (with Measure) the allocation-rate and live-footprint
// measurements TestScaleFootprint reports.
type ScaleResult struct {
	Nodes   int // simulated nodes
	Actives int // active source ranks
	Ops     int // vectored puts issued in the measured phase (Actives*scaleIters)
	// VirtualTime is the simulation clock when the run drained.
	VirtualTime sim.Time
	// MallocsDelta is the heap allocation count of the measured phase
	// (zero unless Measure).
	MallocsDelta uint64
	// AllocsPerOp is MallocsDelta / Ops — the hot-path allocation rate
	// TestScaleAllocsCeiling bounds (zero unless Measure).
	AllocsPerOp float64
	// LiveBytes is HeapInuse+StackInuse after a forced GC at the end of
	// the measured phase: the live footprint of the whole simulated job,
	// dominated at large N by per-node runtime state (zero unless Measure).
	LiveBytes uint64
	// Fingerprint hashes every active's completion instant; per the
	// determinism contract every rerun must reproduce it.
	Fingerprint uint64
	// MasterRSS is the analytic Fig 5 memory model for the target node, the
	// companion number the simulation's own footprint is compared against
	// in docs/SCALING.md.
	MasterRSS int64
}

// Scale runs the scaling harness: up to scaleActives ranks incast windowed
// vectored puts into rank 0 on a Hypercube of c.Nodes nodes (PPN 1), with
// the measured phase gated behind a start event so spawn/teardown noise of
// the idle population stays out of the allocation counts.
func Scale(c ScaleConfig) (*ScaleResult, error) {
	if c.Nodes == 0 {
		c.Nodes = 1024
	}
	if c.Nodes < 2 {
		return nil, fmt.Errorf("figures: the scaling harness needs at least 2 nodes (a target and an active), got %d", c.Nodes)
	}
	actives := min(scaleActives, c.Nodes-1)
	rt, err := run{spec: core.Spec{Kind: core.Hypercube}, nodes: c.Nodes, ppn: 1, seed: c.Seed}.start("", nil)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	eng := rt.Engine()

	// Rank 0's window: one shared slot all actives write (the CHT applies
	// requests serially, so overlap is benign), keeping the per-rank
	// backing arrays — Alloc gives one to *every* rank — a few hundred
	// bytes so LiveBytes measures runtime state, not workload buffers.
	rt.Alloc("hot", 8+scaleSegs*scaleSegLen)

	// The measured phase opens at startAt — far enough past t=0 that every
	// idle rank has exited and its teardown events have drained — and closes
	// when the last active's completion lands in a global event.
	const startAt = 10 * sim.Microsecond
	start := sim.NewEvent(eng, "scale-start")
	var before, after runtime.MemStats
	eng.At(startAt, func() {
		if c.Measure {
			runtime.ReadMemStats(&before)
		}
		start.Fire()
	})

	// Per-active completion instants, each written only from its own
	// owner's context; the fingerprint folds them after the run.
	doneAt := make([]sim.Time, actives)
	remaining := actives

	body := func(r *armci.Rank) {
		rank := r.Rank()
		if rank == 0 || rank > actives {
			return // rank 0 is the target; everyone past the actives idles
		}
		idx := rank - 1
		// The payload buffers are hoisted out of the op loop: workload-side
		// allocation would otherwise drown the runtime's own rate, which is
		// the quantity under test.
		segs := make([]armci.Seg, scaleSegs)
		for i := range segs {
			segs[i] = armci.Seg{Off: 8 + i*scaleSegLen, Len: scaleSegLen}
		}
		data := make([]byte, scaleSegs*scaleSegLen)
		hs := make([]*armci.Handle, 0, scaleWindow)
		start.Wait(r.Proc())
		for k := 0; k < scaleIters; k += scaleWindow {
			w := min(scaleWindow, scaleIters-k)
			hs = hs[:0]
			for j := 0; j < w; j++ {
				hs = append(hs, r.NbPutV(0, "hot", segs, data))
			}
			r.WaitAll(hs...)
		}
		doneAt[idx] = r.Now()
		eng.AtGlobal(func() {
			remaining--
			if remaining == 0 && c.Measure {
				runtime.GC()
				runtime.ReadMemStats(&after)
			}
		})
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}

	res := &ScaleResult{
		Nodes:       c.Nodes,
		Actives:     actives,
		Ops:         actives * scaleIters,
		VirtualTime: eng.Now(),
		MasterRSS:   rt.MasterRSS(0),
	}
	if c.Measure {
		res.MallocsDelta = after.Mallocs - before.Mallocs
		res.AllocsPerOp = float64(res.MallocsDelta) / float64(res.Ops)
		res.LiveBytes = after.HeapInuse + after.StackInuse
	}
	h := fnv.New64a()
	for idx, t := range doneAt {
		fmt.Fprintf(h, "%d:%d;", idx, int64(t))
	}
	res.Fingerprint = h.Sum64()
	return res, nil
}
