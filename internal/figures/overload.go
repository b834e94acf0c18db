package figures

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// The overload harness: an incast storm against one hot node under a
// deterministic storm-fault schedule, with the overload-protection layer's
// end-to-end invariants asserted inside the run. Every rank off the hot node
// pipelines windows of 1 KiB accumulate operations into a per-origin ledger
// region at the hot node's first rank, stamping a deterministic mix of
// priority classes and deadlines, and records per-op outcomes. The payload
// mass matters: it is what backs up the hot node's ejection port past
// Fabric.CongestionThreshold, so CE marks flow and the AIMD pacers engage.
// After the run the harness checks, per origin:
//
//	issued == completed + shed        (nothing unaccounted)
//	applied == completed, exactly     (no lost or double apply among admitted)
//
// and globally that the runtime's shed ledger (Stats.ShedOps and the three
// per-reason counters) exactly matches the *OverloadError outcomes the ranks
// observed, that goodput under protection clears a configurable floor, that
// per-tenant goodput stays within a max/min fairness bound, and that the
// credit invariants held. The protection-off arm of the same workload is the
// collapse baseline the BENCH_overload record quantifies.

// OverloadConfig sizes one overload run.
type OverloadConfig struct {
	Kind core.Kind
	// Topo, when non-zero, selects a parameterized topology spec and takes
	// precedence over Kind (zero Spec defers to Kind; see ContentionConfig).
	Topo  core.Spec
	Nodes int // default 64
	PPN   int // default 2
	// OpsPerRank is how many accumulate operations every non-hot rank
	// issues at the hot node (default 64: enough pipelined windows that the
	// AIMD loop sees several feedback rounds and reaches equilibrium).
	OpsPerRank int
	// Window pipelines each rank's ops: Window nonblocking operations in
	// flight before a WaitAll (default 8). The in-flight window is what the
	// pending-op budget bites on under congestion.
	Window int
	// Tenants partitions ranks into tenant classes (rank % Tenants; default
	// 2) for the fairness check. Tenants run identical workloads — the
	// bound asserts protection does not starve any of them.
	Tenants int
	// Storms is how many ejection-bandwidth storm bursts hit the hot node
	// (default 2), the storm-intensity axis of the overload sweep. Each
	// burst is a deterministic faults.Storm window.
	Storms int
	// Deadline is the virtual-time budget stamped on every 5th op (default
	// 100us, several healthy round trips): under pacing backoff those ops
	// shed with reason "deadline" instead of completing hopelessly late.
	Deadline sim.Time
	// Seed drives the engine RNG and per-rank workload jitter.
	Seed int64
	// Protect arms the overload-protection layer (armci.Config.Overload).
	// Off, the identical workload runs unprotected — the collapse baseline.
	Protect bool
	// Budget overrides the pending-op budget when protecting (default
	// 2*Window, so budget sheds trigger once congestion makes completions
	// lag the injection window).
	Budget int
	// StreamLimit and StreamPenalty override the fabric's ejection stream
	// model (defaults 8 and 2.0: a cliff above benign forwarder fan-in but
	// below the hot node's full in-degree, so the unprotected incast
	// demonstrably collapses while paced traffic stays under the limit).
	StreamLimit   int
	StreamPenalty float64
	// GoodputFloor, when positive and protecting, requires
	// completed >= GoodputFloor * issued over the whole run.
	GoodputFloor float64
	// FairnessBound, when positive and protecting, bounds the ratio of the
	// best tenant's completed ops to the worst tenant's.
	FairnessBound float64
	// CollapseFloor, when positive, arms the sim watchdog's goodput-collapse
	// detector with this per-window completion floor (see
	// sim.Watchdog.SetGoodput); a tripped detector surfaces as a
	// *sim.WatchdogError from the run.
	CollapseFloor uint64
	// Shards runs the kernel conservatively in parallel; results are
	// bit-identical for every value. Forced serial when Trace is set.
	Shards int

	// Metrics/Trace/TracePID attach observability exactly as in
	// ContentionConfig.
	Metrics  *obs.Registry
	Trace    *obs.Tracer
	TracePID int
}

// OverloadResult summarizes one overload run after its internal invariants
// passed.
type OverloadResult struct {
	Issued    int // operations issued by non-hot ranks
	Completed int // operations whose handles completed successfully
	Shed      int // operations rejected with *OverloadError
	// Per-reason shed counts, cross-checked against the runtime's ledger.
	ShedBudget, ShedDeadline, ShedClass int
	// TenantCompleted is each tenant's completed-op count, the fairness
	// numerator (all tenants issue the same share).
	TenantCompleted []int
	// WindowP99 is the 99th-percentile virtual latency, in microseconds, of
	// one pipelined window (issue of its first op to WaitAll return).
	WindowP99 float64
	Elapsed   sim.Time
	Stats     armci.Stats
}

// Goodput returns completed operations per millisecond of virtual time.
func (r *OverloadResult) Goodput() float64 {
	ms := float64(r.Elapsed) / float64(sim.Millisecond)
	if ms <= 0 {
		return 0
	}
	return float64(r.Completed) / ms
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.PPN == 0 {
		c.PPN = 2
	}
	if c.OpsPerRank == 0 {
		c.OpsPerRank = 64
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Storms == 0 {
		c.Storms = 2
	}
	if c.Deadline == 0 {
		c.Deadline = 100 * sim.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Budget == 0 {
		c.Budget = 2 * c.Window
	}
	if c.StreamLimit == 0 {
		c.StreamLimit = 8
	}
	if c.StreamPenalty == 0 {
		c.StreamPenalty = 4.0
	}
	return c
}

// ovlVals is the accumulate vector length (128 float64s = 1 KiB on the
// wire), and ovlSlot the per-origin ledger region size in bytes.
const (
	ovlVals = 128
	ovlSlot = 8 * ovlVals
)

// stormSchedule builds the deterministic storm bursts against the hot node:
// burst i squeezes the ejection port to a quarter of its bandwidth in
// 50us on/off half-periods for 300us, starting at 100us + i*4ms. The 4 ms
// spacing lets each arm finish paying for one burst before the next lands,
// so elapsed time reflects per-storm recovery cost rather than one merged
// episode.
func stormSchedule(hot, storms int) []faults.Fault {
	var fs []faults.Fault
	for i := 0; i < storms; i++ {
		fs = append(fs, faults.Fault{
			Kind:   faults.Storm,
			A:      hot,
			At:     100*sim.Microsecond + sim.Time(i)*4*sim.Millisecond,
			For:    300 * sim.Microsecond,
			Factor: 0.25,
			Period: 50 * sim.Microsecond,
		})
	}
	return fs
}

// Overload runs one incast-storm workload and verifies the overload
// invariants documented on the package section above. A non-nil error means
// the simulation failed (including a goodput-collapse watchdog trip when
// CollapseFloor is armed) or an invariant was violated.
func Overload(c OverloadConfig) (*OverloadResult, error) {
	c = c.withDefaults()
	eng := simEngine()
	eng.Seed(c.Seed)
	spec := c.Topo
	if spec.IsZero() {
		spec = core.Spec{Kind: c.Kind}
	}
	topo, err := spec.Build(c.Nodes)
	if err != nil {
		return nil, err
	}

	const hot = 0 // hot node; its first rank hosts every ledger slot
	cfg := armci.DefaultConfig(c.Nodes, c.PPN)
	cfg.Topology = topo
	cfg.Fabric.StreamLimit = c.StreamLimit
	cfg.Fabric.StreamPenalty = c.StreamPenalty
	cfg.Faults = faults.NewInjector(eng, c.Nodes, &faults.Spec{Faults: stormSchedule(hot, c.Storms)})
	// Storms stretch ejection bandwidth but never lose traffic, so the
	// retransmission machinery (armed by default whenever Faults is set) can
	// only amplify the incast: under deep congestion every chunk would time
	// out and re-enter the jammed queue, confounding the protection
	// comparison. Both arms run with a timeout above any achievable queueing
	// delay instead.
	cfg.RequestTimeout = sim.Second
	if c.Protect {
		cfg.Overload.Enabled = true
		cfg.Overload.Budget = c.Budget
		// With every origin aimed at one node, the slow-start floor must
		// hold the initial per-origin rate below the fair share of the hot
		// port (origins x per-op serialization, with headroom), or the
		// first window floods a queue that outlives the whole run: once a
		// standing backlog keeps every converging edge resident at the
		// ejection port, the stream penalty cuts drain below even heavily
		// paced arrival and the port never escapes.
		cfg.Overload.PaceFloor = 128 * sim.Microsecond
	}
	cfg.Metrics = c.Metrics
	cfg.Trace = c.Trace
	cfg.TracePID = c.TracePID
	cfg.Shards = c.Shards
	if c.Trace != nil {
		cfg.Shards = 1
		arm := "unprotected"
		if c.Protect {
			arm = "protected"
		}
		c.Trace.ProcessName(c.TracePID, fmt.Sprintf("overload %v %d nodes, %d storms, %s", spec, c.Nodes, c.Storms, arm))
	}
	// The watchdog converts both a wedged run and — when CollapseFloor is
	// armed — a goodput collapse into a Run error instead of a hang.
	wd := sim.NewWatchdog(eng, 0, 0)

	rt, err := armci.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	if c.CollapseFloor > 0 {
		wd.SetGoodput(rt.GoodputSample, c.CollapseFloor)
	}
	wd.Start()

	n := rt.NRanks()
	rt.Alloc("ovl", ovlSlot*n)
	hotRank := hot * c.PPN
	ones := make([]float64, ovlVals)
	for i := range ones {
		ones[i] = 1
	}

	issued := make([]int, n)
	completed := make([]int, n)
	shed := make([]int, n)
	shedBudget := make([]int, n)
	shedDeadline := make([]int, n)
	shedClass := make([]int, n)
	other := make([]int, n)           // unexpected (non-overload) failures
	windowLat := make([][]float64, n) // per-rank window latencies, us
	doneAt := make([]sim.Time, n)     // per-rank workload finish instant

	body := func(r *armci.Rank) {
		if r.Node() == hot {
			return // the hot node's ranks are targets, not sources
		}
		rng := rand.New(rand.NewSource(c.Seed*1_000_003 + int64(r.Rank())))
		r.Sleep(sim.Time(rng.Int63n(int64(20 * sim.Microsecond))))
		me := r.Rank()
		hs := make([]*armci.Handle, 0, c.Window)
		for i := 0; i < c.OpsPerRank; i += c.Window {
			w := c.Window
			if c.OpsPerRank-i < w {
				w = c.OpsPerRank - i
			}
			hs = hs[:0]
			t0 := r.Now()
			for j := 0; j < w; j++ {
				// Deterministic op mix: every 4th op is best-effort
				// (class 1, sheddable at the ladder's top rung), every
				// 5th carries a deadline. Stamps are set identically in
				// both arms; the unprotected runtime ignores them.
				op := i + j
				class := 0
				if op%4 == 3 {
					class = 1
				}
				r.SetOpClass(class)
				if op%5 == 4 {
					r.SetOpDeadline(c.Deadline)
				} else {
					r.SetOpDeadline(0)
				}
				issued[me]++
				hs = append(hs, r.NbAcc(hotRank, "ovl", ovlSlot*me, 1.0, ones))
			}
			r.WaitAll(hs...)
			windowLat[me] = append(windowLat[me], (r.Now() - t0).Micros())
			for _, h := range hs {
				err := h.Err()
				if err == nil {
					completed[me]++
					continue
				}
				var oe *armci.OverloadError
				if errors.As(err, &oe) {
					shed[me]++
					switch oe.Reason {
					case "budget":
						shedBudget[me]++
					case "deadline":
						shedDeadline[me]++
					case "class":
						shedClass[me]++
					}
				} else {
					other[me]++
				}
			}
			r.Sleep(sim.Time(int64(2*sim.Microsecond) + rng.Int63n(int64(4*sim.Microsecond))))
		}
		doneAt[me] = r.Now()
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}
	rt.FillMetrics()

	res := &OverloadResult{
		TenantCompleted: make([]int, c.Tenants),
		Stats:           rt.Stats(),
	}
	// Elapsed is the workload makespan (last rank's finish), not eng.Now():
	// the engine clock at Run's return is quantized by the watchdog's check
	// interval, which would swamp the goodput comparison between arms.
	for _, t := range doneAt {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	var allLat []float64
	for rank := 0; rank < n; rank++ {
		if rank/c.PPN == hot {
			continue
		}
		// Invariant 1: per-origin accounting — every issued op ended as
		// exactly one of completed or shed; nothing failed any other way.
		if other[rank] != 0 {
			return nil, fmt.Errorf("overload %v seed %d: rank %d saw %d non-overload failures",
				spec, c.Seed, rank, other[rank])
		}
		if issued[rank] != completed[rank]+shed[rank] {
			return nil, fmt.Errorf("overload %v seed %d: rank %d accounting broken: %d issued != %d completed + %d shed",
				spec, c.Seed, rank, issued[rank], completed[rank], shed[rank])
		}
		// Invariant 2: ledger exactness — each admitted op adds +1 to every
		// element of the origin's slot exactly once, each shed op not at all
		// (exact in float64 at these counts). First and last element cover
		// both ends of the accumulate vector.
		mem := rt.Memory(hotRank, "ovl")
		for _, el := range []int{0, ovlVals - 1} {
			applied := armci.GetFloat64(mem, ovlSlot*rank+8*el)
			if applied != float64(completed[rank]) {
				return nil, fmt.Errorf("overload %v seed %d: rank %d ledger[%d] mismatch: %g applied != %d completed",
					spec, c.Seed, rank, el, applied, completed[rank])
			}
		}
		res.Issued += issued[rank]
		res.Completed += completed[rank]
		res.Shed += shed[rank]
		res.ShedBudget += shedBudget[rank]
		res.ShedDeadline += shedDeadline[rank]
		res.ShedClass += shedClass[rank]
		res.TenantCompleted[rank%c.Tenants] += completed[rank]
		allLat = append(allLat, windowLat[rank]...)
	}
	if len(allLat) > 0 {
		sort.Float64s(allLat)
		idx := (99 * len(allLat)) / 100
		if idx >= len(allLat) {
			idx = len(allLat) - 1
		}
		res.WindowP99 = allLat[idx]
	}

	// Invariant 3: the runtime's shed ledger exactly accounts the rejected
	// ops the ranks observed, reason by reason, and admissions cover the
	// rest. An unprotected run must shed nothing.
	s := res.Stats
	if int(s.ShedOps) != res.Shed ||
		int(s.ShedBudget) != res.ShedBudget ||
		int(s.ShedDeadline) != res.ShedDeadline ||
		int(s.ShedClass) != res.ShedClass {
		return nil, fmt.Errorf("overload %v seed %d: shed ledger mismatch: stats %d/%d/%d/%d != observed %d/%d/%d/%d",
			spec, c.Seed, s.ShedOps, s.ShedBudget, s.ShedDeadline, s.ShedClass,
			res.Shed, res.ShedBudget, res.ShedDeadline, res.ShedClass)
	}
	if c.Protect {
		if int(s.Admitted) != res.Issued-res.Shed {
			return nil, fmt.Errorf("overload %v seed %d: admitted %d != issued %d - shed %d",
				spec, c.Seed, s.Admitted, res.Issued, res.Shed)
		}
	} else if res.Shed != 0 || s.Admitted != 0 {
		return nil, fmt.Errorf("overload %v seed %d: unprotected run shed %d ops (admitted %d)",
			spec, c.Seed, res.Shed, s.Admitted)
	}
	// Invariant 4: goodput under protection clears the configured floor.
	if c.Protect && c.GoodputFloor > 0 {
		if float64(res.Completed) < c.GoodputFloor*float64(res.Issued) {
			return nil, fmt.Errorf("overload %v seed %d: goodput %d/%d below floor %g",
				spec, c.Seed, res.Completed, res.Issued, c.GoodputFloor)
		}
	}
	// Invariant 5: per-tenant max/min fairness bound.
	if c.Protect && c.FairnessBound > 0 {
		minT, maxT := res.TenantCompleted[0], res.TenantCompleted[0]
		for _, t := range res.TenantCompleted[1:] {
			if t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
		if minT == 0 || float64(maxT)/float64(minT) > c.FairnessBound {
			return nil, fmt.Errorf("overload %v seed %d: tenant goodput %v violates fairness bound %g",
				spec, c.Seed, res.TenantCompleted, c.FairnessBound)
		}
	}
	// Invariant 6: credits stayed within bounds on every edge.
	if err := rt.CheckCreditInvariants(); err != nil {
		return nil, fmt.Errorf("overload %v seed %d: %w", spec, c.Seed, err)
	}
	return res, nil
}
