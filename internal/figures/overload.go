package figures

import (
	"fmt"
	"math/rand"
	"slices"
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
// After the run the harness checks that only sheds failed, so the shared
// ledger.check's per-origin bounds
//
//	completed <= applied <= completed + failed - shed
//
// pin every admitted op to exactly one apply. The same check reconciles the
// runtime's shed ledger (Stats.ShedOps and the three per-reason counters)
// with the *OverloadError outcomes the ranks observed, admissions with the
// ops not shed, and the credit invariants. On top of that goodput under
// protection must clear a configurable floor and per-tenant goodput must stay
// within a max/min fairness bound. The protection-off arm of the same
// workload is the collapse baseline TestOverloadProtectionWins measures
// protection against.

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
	// Tenants partitions ranks into tenant classes (rank % Tenants; default
	// 2) for the fairness check. Tenants run identical workloads — the
	// bound asserts protection does not starve any of them.
	Tenants int
	// Storms is how many ejection-bandwidth storm bursts hit the hot node
	// (default 2), the storm-intensity axis of the overload sweep. Each
	// burst is a deterministic faults.Storm window.
	Storms int
	// Seed drives the engine RNG and per-rank workload jitter.
	Seed int64
	// Protect arms the overload-protection layer (armci.Config.Overload).
	// Off, the identical workload runs unprotected — the collapse baseline.
	Protect bool
	// GoodputFloor, when positive and protecting, requires
	// completed >= GoodputFloor * issued over the whole run.
	GoodputFloor float64
	// FairnessBound, when positive and protecting, bounds the ratio of the
	// best tenant's completed ops to the worst tenant's.
	FairnessBound float64
	// CollapseFloor, when positive, arms the sim watchdog's goodput-collapse
	// detector with this per-window completion floor (see
	// sim.Watchdog.SetGoodput); a tripped detector surfaces as an
	// *armci.StallError (a *sim.WatchdogError) from the run.
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
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Storms == 0 {
		c.Storms = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// The incast workload's shape.
const (
	// ovlVals is the accumulate vector length (128 float64s = 1 KiB on the
	// wire), and ovlSlot the per-origin ledger region size in bytes.
	ovlVals = 128
	ovlSlot = 8 * ovlVals
	// ovlWindow pipelines each rank's ops: ovlWindow nonblocking operations
	// in flight before a WaitAll. The in-flight window is what the
	// pending-op budget bites on under congestion.
	ovlWindow = 8
	// ovlBudget is the pending-op budget when protecting, 2*ovlWindow, so
	// budget sheds trigger once congestion makes completions lag the
	// injection window.
	ovlBudget = 2 * ovlWindow
	// ovlDeadline is the virtual-time budget stamped on every 5th op,
	// several healthy round trips: under pacing backoff those ops shed with
	// reason "deadline" instead of completing hopelessly late.
	ovlDeadline = 100 * sim.Microsecond
	// ovlStreamLimit and ovlStreamPenalty set the fabric's ejection stream
	// model: a cliff above benign forwarder fan-in but below the hot node's
	// full in-degree, so the unprotected incast demonstrably collapses while
	// paced traffic stays under the limit.
	ovlStreamLimit   = 8
	ovlStreamPenalty = 4.0
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
	spec := specOf(c.Kind, c.Topo)
	const hot = 0 // hot node; its first rank hosts every ledger slot
	arm := "unprotected"
	if c.Protect {
		arm = "protected"
	}
	rt, err := run{
		spec: spec, nodes: c.Nodes, ppn: c.PPN, seed: c.Seed, shards: c.Shards,
		faults: &faults.Spec{Faults: stormSchedule(hot, c.Storms)}, collapse: c.CollapseFloor,
		metrics: c.Metrics, trace: c.Trace, tracePID: c.TracePID,
	}.start(fmt.Sprintf("overload %v %d nodes, %d storms, %s", spec, c.Nodes, c.Storms, arm), func(cfg *armci.Config) {
		cfg.Fabric.StreamLimit = ovlStreamLimit
		cfg.Fabric.StreamPenalty = ovlStreamPenalty
		// Storms stretch ejection bandwidth but never lose traffic, so the
		// retransmission machinery (armed by default whenever Faults is
		// set) can only amplify the incast: under deep congestion every
		// chunk would time out and re-enter the jammed queue, confounding
		// the protection comparison. Both arms run with a timeout above any
		// achievable queueing delay instead.
		cfg.RequestTimeout = sim.Second
		if c.Protect {
			cfg.Overload.Enabled = true
			cfg.Overload.Budget = ovlBudget
			// With every origin aimed at one node, the slow-start floor
			// must hold the initial per-origin rate below the fair share of
			// the hot port (origins x per-op serialization, with headroom),
			// or the first window floods a queue that outlives the whole
			// run: once a standing backlog keeps every converging edge
			// resident at the ejection port, the stream penalty cuts drain
			// below even heavily paced arrival and the port never escapes.
			cfg.Overload.PaceFloor = 128 * sim.Microsecond
		}
	})
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	n := rt.NRanks()
	rt.Alloc("ovl", ovlSlot*n)
	hotRank := hot * c.PPN
	ones := make([]float64, ovlVals)
	for i := range ones {
		ones[i] = 1
	}

	led := make(ledger, n)
	windowLat := make([][]float64, n) // per-rank window latencies, us
	doneAt := make([]sim.Time, n)     // per-rank workload finish instant

	body := func(r *armci.Rank) {
		if r.Node() == hot {
			return // the hot node's ranks are targets, not sources
		}
		rng := rand.New(sim.NewSource(c.Seed*1_000_003 + int64(r.Rank())))
		r.Sleep(sim.Time(rng.Int63n(int64(20 * sim.Microsecond))))
		me := r.Rank()
		hs := make([]*armci.Handle, 0, ovlWindow)
		for i := 0; i < c.OpsPerRank; i += ovlWindow {
			w := min(ovlWindow, c.OpsPerRank-i)
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
					r.SetOpDeadline(ovlDeadline)
				} else {
					r.SetOpDeadline(0)
				}
				hs = append(hs, r.NbAcc(hotRank, "ovl", ovlSlot*me, 1.0, ones))
			}
			r.WaitAll(hs...)
			windowLat[me] = append(windowLat[me], (r.Now() - t0).Micros())
			for _, h := range hs {
				led.record(me, h.Err())
			}
			r.Sleep(sim.Time(int64(2*sim.Microsecond) + rng.Int63n(int64(4*sim.Microsecond))))
		}
		doneAt[me] = r.Now()
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}
	rt.FillMetrics()

	t := led.total()
	res := &OverloadResult{
		Issued: t.issued(), Completed: t.completed, Shed: t.sheds(),
		ShedBudget: t.shed[0], ShedDeadline: t.shed[1], ShedClass: t.shed[2],
		TenantCompleted: make([]int, c.Tenants),
		Stats:           rt.Stats(),
	}
	// Elapsed is the workload makespan (last rank's finish), not eng.Now():
	// the engine clock at Run's return is quantized by the watchdog's check
	// interval, which would swamp the goodput comparison between arms.
	var origins []int
	var allLat []float64
	for rank := 0; rank < n; rank++ {
		res.Elapsed = max(res.Elapsed, doneAt[rank])
		if rank/c.PPN != hot {
			origins = append(origins, rank)
			res.TenantCompleted[rank%c.Tenants] += led[rank].completed
			allLat = append(allLat, windowLat[rank]...)
		}
	}
	if len(allLat) > 0 {
		sort.Float64s(allLat)
		res.WindowP99 = allLat[min((99*len(allLat))/100, len(allLat)-1)]
	}

	// Only sheds fail: storms stretch bandwidth but lose nothing.
	if t.failed != t.sheds() {
		return nil, fmt.Errorf("overload %v seed %d: %d of %d failures were not sheds",
			spec, c.Seed, t.failed-t.sheds(), t.failed)
	}
	// With only sheds failing, the ledger's bounds pin every admitted op to
	// exactly one apply on every element of its origin's slot; the first and
	// last element cover both ends of the accumulate vector.
	mem := rt.Memory(hotRank, "ovl")
	applied := func(o int) (lo, hi float64) {
		first := armci.GetFloat64(mem, ovlSlot*o)
		last := armci.GetFloat64(mem, ovlSlot*o+8*(ovlVals-1))
		return min(first, last), max(first, last)
	}
	if err := led.check(rt, c.Protect, origins, applied); err != nil {
		return nil, fmt.Errorf("overload %v seed %d: %w", spec, c.Seed, err)
	}
	// Goodput under protection clears the configured floor.
	if c.Protect && c.GoodputFloor > 0 && float64(res.Completed) < c.GoodputFloor*float64(res.Issued) {
		return nil, fmt.Errorf("overload %v seed %d: goodput %d/%d below floor %g",
			spec, c.Seed, res.Completed, res.Issued, c.GoodputFloor)
	}
	// Per-tenant max/min fairness bound.
	if c.Protect && c.FairnessBound > 0 {
		minT, maxT := slices.Min(res.TenantCompleted), slices.Max(res.TenantCompleted)
		if minT == 0 || float64(maxT)/float64(minT) > c.FairnessBound {
			return nil, fmt.Errorf("overload %v seed %d: tenant goodput %v violates fairness bound %g",
				spec, c.Seed, res.TenantCompleted, c.FairnessBound)
		}
	}
	return res, nil
}
