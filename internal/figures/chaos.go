package figures

import (
	"fmt"
	"math/rand"

	"armcivt/internal/armci"
	"armcivt/internal/ckpt"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// The chaos harness: a randomized crash/recover schedule under a randomized
// survivor-to-survivor workload, with end-to-end correctness asserted inside
// the run rather than eyeballed outside it. Each surviving rank owns one
// float64 ledger slot (slot o at every rank), accumulates +1 into its own
// slot at random survivor targets, and counts completions and failures. After
// the run the harness checks, per origin:
//
//	completed <= applied <= completed + failed
//
// The lower bound catches lost operations (an op reported complete that
// never applied); the upper bound catches double-applies (the at-most-once
// rid dedup failing under crash/retry churn). On top of that it checks the
// credit invariants, the membership detection-latency bound, and — via the
// sim watchdog — that the run never wedges. Chaos is the acceptance gate of
// the node-fault work: the sweep's "chaos" experiment runs it across
// topologies, crash counts and seeds, and CI runs a small fixed-seed grid.

// chaosHorizon is the virtual-time window the random schedule draws crash
// times from (crashes land in its first ~60%, recoveries inside it), sized
// so a default workload is still issuing operations on both sides of every
// crash.
const chaosHorizon = 2 * sim.Millisecond

// ChaosConfig sizes one chaos run.
type ChaosConfig struct {
	Kind core.Kind
	// Topo, when non-zero, selects a parameterized topology spec and takes
	// precedence over Kind (zero Spec defers to Kind; see ContentionConfig).
	Topo  core.Spec
	Nodes int // default 64
	PPN   int // default 2
	// OpsPerRank is how many accumulate operations every surviving rank
	// issues (default 20), spread over the crash window by per-rank random
	// pacing.
	OpsPerRank int
	// Crashes is how many nodes crash-stop (default 3; the schedule
	// generator caps it at Nodes/2 so survivors stay a majority). Roughly
	// half the victims recover within the horizon.
	Crashes int
	// Seed drives the engine RNG, the fault schedule and the per-rank
	// workload shapes; same seed, same run, bit for bit.
	Seed int64
	// Heal arms heartbeat membership and online self-healing. With it off
	// the same schedule demonstrably loses paths on multi-hop topologies:
	// operations routed through a dead forwarder exhaust their retries.
	Heal bool
	// Storms appends hot-spot ejection storms (stormSchedule against node 0)
	// to the crash schedule, so crash recovery and congestion stress overlap.
	// Zero (the default) keeps the schedule crash-only and bit-identical to
	// pre-storm chaos runs.
	Storms int
	// Overload arms the overload-protection layer (admission control, AIMD
	// pacing, shedding); shed operations surface as failed handles, which the
	// ledger invariants already cover.
	Overload bool
	// Shards runs the kernel conservatively in parallel (armci.Config.Shards);
	// ledger results are bit-identical for every value. Forced serial when
	// Trace is set.
	Shards int

	// Metrics/Trace/TracePID attach observability exactly as in
	// ContentionConfig.
	Metrics  *obs.Registry
	Trace    *obs.Tracer
	TracePID int
}

// ChaosResult summarizes one chaos run after its internal invariants passed.
type ChaosResult struct {
	Issued    int // operations issued by surviving ranks
	Completed int // operations whose handles completed successfully
	Failed    int // operations whose handles failed (timeout or node death)
	// Partitioned counts the subset of Failed whose origin-target pair had
	// no live admissible route when the failure surfaced: every forwarder
	// that could correct a dimension toward the target was down. Healing
	// cannot route around a partition — replacements must stay admissible
	// to keep the LDF D <= M bound — so these failures are expected even
	// with healing on; with it on, they should be the ONLY failures.
	Partitioned int
	Victims     []int // nodes the schedule crashed, in schedule order
	Elapsed     sim.Time
	Stats       armci.Stats
	// Fingerprint folds the per-rank ledgers, the per-rank outcome counters
	// and the final clock into one value: two runs with equal fingerprints
	// finished in the same end-to-end state. It is the oracle runs at
	// different shard counts are compared against.
	Fingerprint uint64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.PPN == 0 {
		c.PPN = 2
	}
	if c.OpsPerRank == 0 {
		c.OpsPerRank = 20
	}
	if c.Crashes == 0 {
		c.Crashes = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Chaos runs one randomized crash/recover schedule and verifies the
// end-to-end invariants documented on the package section above. A non-nil
// error means either the simulation failed (e.g. the watchdog tripped on a
// wedge) or an invariant was violated; both are defects, never expected
// outcomes.
func Chaos(c ChaosConfig) (*ChaosResult, error) {
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

	schedule := faults.RandomNodeFaults(c.Seed, c.Nodes, c.Crashes, chaosHorizon)
	victimSet := map[int]bool{}
	var victims []int
	for _, f := range schedule {
		if !victimSet[f.A] {
			victimSet[f.A] = true
			victims = append(victims, f.A)
		}
	}
	if c.Storms > 0 {
		// Ejection storms on top of the crash schedule: node 0 (crashed or
		// not, the port still congests) takes the bursts, so recovery and
		// hot-spot pressure overlap.
		schedule = append(schedule, stormSchedule(0, c.Storms)...)
	}

	cfg := armci.DefaultConfig(c.Nodes, c.PPN)
	cfg.Topology = topo
	inj := faults.NewInjector(eng, c.Nodes, &faults.Spec{Faults: schedule})
	cfg.Faults = inj
	cfg.Heal.Enabled = c.Heal
	cfg.Overload.Enabled = c.Overload
	// Fast retry constants scaled to the horizon. The doubling retries from
	// 200us put attempts at +200us/600us/1.4ms/3ms after issue — the last
	// two comfortably past worst-case detection (armci.DetectionBound,
	// 800us), so a healed route is always found before retries exhaust and
	// any failure with healing on is a real lost path, not impatience. The total span (6.2ms) also stays
	// under the watchdog's patience window: a doomed operation fails — and
	// resumes its rank — before quiescent retry churn reads as a wedge.
	cfg.RequestTimeout = 200 * sim.Microsecond
	cfg.MaxRetries = 4
	cfg.CreditTimeout = 400 * sim.Microsecond
	cfg.Metrics = c.Metrics
	cfg.Trace = c.Trace
	cfg.TracePID = c.TracePID
	cfg.Shards = c.Shards
	if c.Trace != nil {
		cfg.Shards = 1
	}
	if c.Trace != nil {
		heal := "heal off"
		if c.Heal {
			heal = "heal on"
		}
		c.Trace.ProcessName(c.TracePID, fmt.Sprintf("chaos %v %d nodes, %d crashes, %s", spec, c.Nodes, c.Crashes, heal))
	}
	// A chaotic schedule that wedges the protocol must become an error, not
	// a hang: the watchdog converts a stuck event queue into a
	// *sim.WatchdogError carrying a blocked-process report.
	sim.NewWatchdog(eng, 0, 0).Start()

	rt, err := armci.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	n := rt.NRanks()
	rt.Alloc("chaos", 8*n)

	// Survivor ranks and their targets: only ranks on never-crashed nodes
	// issue and receive, so the ledger is immune to victim-side resets and
	// every assertion below is exact.
	var survivors []int
	for rank := 0; rank < n; rank++ {
		if !victimSet[rank/c.PPN] {
			survivors = append(survivors, rank)
		}
	}
	issued := make([]int, n)
	completed := make([]int, n)
	failed := make([]int, n)
	partitioned := make([]int, n) // per-rank: written only from the rank's own shard

	body := func(r *armci.Rank) {
		if victimSet[r.Node()] {
			// Victim ranks idle past the detection window so the membership
			// monitors (which run while any rank is live) outlast the last
			// crash, its confirmation and any recovery.
			r.Sleep(2 * chaosHorizon)
			return
		}
		rng := rand.New(rand.NewSource(c.Seed*1_000_003 + int64(r.Rank())))
		r.Sleep(sim.Time(rng.Int63n(int64(50 * sim.Microsecond))))
		for i := 0; i < c.OpsPerRank; i++ {
			target := survivors[rng.Intn(len(survivors))]
			issued[r.Rank()]++
			h := r.NbAcc(target, "chaos", 8*r.Rank(), 1.0, []float64{1})
			r.Wait(h)
			if h.Err() != nil {
				failed[r.Rank()]++
				// Classify against ground truth at failure time: no live
				// admissible route means a partition, the one failure mode
				// healing is not allowed to paper over.
				if _, ok := core.ReplacementHop(topo, r.Node(), target/c.PPN, inj.NodeDown); !ok {
					partitioned[r.Rank()]++
				}
			} else {
				completed[r.Rank()]++
			}
			r.Sleep(sim.Time(int64(20*sim.Microsecond) + rng.Int63n(int64(60*sim.Microsecond))))
		}
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}
	rt.FillMetrics()

	res := &ChaosResult{Victims: victims, Elapsed: eng.Now(), Stats: rt.Stats()}
	for _, p := range partitioned {
		res.Partitioned += p
	}

	// Invariant 1: per-origin ledger conservation. applied(o) sums slot o
	// over every rank's memory; each +1 is exact in float64 at these counts.
	for _, o := range survivors {
		var applied float64
		for t := 0; t < n; t++ {
			applied += armci.GetFloat64(rt.Memory(t, "chaos"), 8*o)
		}
		if applied < float64(completed[o]) {
			return nil, fmt.Errorf("chaos %v seed %d: rank %d lost operations: %d completed but only %g applied",
				spec, c.Seed, o, completed[o], applied)
		}
		if applied > float64(completed[o]+failed[o]) {
			return nil, fmt.Errorf("chaos %v seed %d: rank %d double-applied: %g applied exceeds %d issued",
				spec, c.Seed, o, applied, completed[o]+failed[o])
		}
		if issued[o] != completed[o]+failed[o] {
			return nil, fmt.Errorf("chaos %v seed %d: rank %d accounting broken: %d issued != %d completed + %d failed",
				spec, c.Seed, o, issued[o], completed[o], failed[o])
		}
		res.Issued += issued[o]
		res.Completed += completed[o]
		res.Failed += failed[o]
	}
	// Invariant 2: victim ranks issued nothing, so their slots stay zero.
	for _, v := range victims {
		for p := 0; p < c.PPN; p++ {
			o := v*c.PPN + p
			for t := 0; t < n; t++ {
				if got := armci.GetFloat64(rt.Memory(t, "chaos"), 8*o); got != 0 {
					return nil, fmt.Errorf("chaos %v seed %d: idle victim rank %d's slot is %g at rank %d", spec, c.Seed, o, got, t)
				}
			}
		}
	}
	// Invariant 3: credits stayed within bounds on every edge (and, when
	// adaptive credits are on, every receiver's partition still sums to its
	// budget with floor >= 1).
	if err := rt.CheckCreditInvariants(); err != nil {
		return nil, fmt.Errorf("chaos %v seed %d: %w", spec, c.Seed, err)
	}
	// Invariant 4: bounded detection. Every confirmation must land within
	// armci.DetectionBound of the crash.
	if c.Heal && res.Stats.Confirms > 0 && res.Stats.MaxDetectLatency > armci.DetectionBound {
		return nil, fmt.Errorf("chaos %v seed %d: detection latency %v exceeds bound %v",
			spec, c.Seed, res.Stats.MaxDetectLatency, armci.DetectionBound)
	}
	// The ledger fingerprint: every rank's outcome counters plus the full
	// applied matrix plus the final clock. This is the bit-identity oracle —
	// every shard count must reproduce it exactly.
	h := ckpt.MixInit
	for o := 0; o < n; o++ {
		h = ckpt.Mix(h, uint64(issued[o]))
		h = ckpt.Mix(h, uint64(completed[o]))
		h = ckpt.Mix(h, uint64(failed[o]))
		h = ckpt.Mix(h, uint64(partitioned[o]))
		for t := 0; t < n; t++ {
			h = ckpt.MixF64(h, armci.GetFloat64(rt.Memory(t, "chaos"), 8*o))
		}
	}
	h = ckpt.Mix(h, uint64(res.Elapsed))
	res.Fingerprint = h
	return res, nil
}
