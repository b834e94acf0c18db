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
// slot at random survivor targets, and books every outcome in the ledger.
// After the run ledger.check asserts, per origin:
//
//	completed <= applied <= completed + failed
//
// The lower bound catches lost operations (an op reported complete that
// never applied); the upper bound catches double-applies (the at-most-once
// rid dedup failing under crash/retry churn). The same check asserts the
// credit invariants. On top of that the
// harness checks that idle victims' slots stay zero, the membership
// detection-latency bound, and — via the sim watchdog — that the run never
// wedges. Chaos is the acceptance gate of the node-fault work: the sweep's
// "chaos" experiment runs it across topologies, crash counts and seeds, and
// CI runs a small fixed-seed grid.

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
	// Deprecated: Shards is read by nothing. The simulation kernel is
	// serial; the field stays only so existing callers compile.
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
	// finished in the same end-to-end state. It is the oracle reruns,
	// resumed runs and parallel sweep workers are compared against.
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
	spec := specOf(c.Kind, c.Topo)
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

	heal := "heal off"
	if c.Heal {
		heal = "heal on"
	}
	rt, err := run{
		spec: spec, nodes: c.Nodes, ppn: c.PPN, seed: c.Seed,
		faults: &faults.Spec{Faults: schedule}, metrics: c.Metrics, trace: c.Trace, tracePID: c.TracePID,
	}.start(fmt.Sprintf("chaos %v %d nodes, %d crashes, %s", spec, c.Nodes, c.Crashes, heal), func(cfg *armci.Config) {
		cfg.Heal.Enabled = c.Heal
		// Fast retry constants scaled to the horizon. The doubling retries
		// from 200us put attempts at +200us/600us/1.4ms/3ms after issue —
		// the last two comfortably past worst-case detection (an observer
		// confirms within armci.DetectionBound, 800us, and its notice
		// reaches the rest of the line one hop later), the last also past
		// a second crash that an observer takes over from the first
		// (confirmed by +1.6ms). So a healed route is always found before
		// retries exhaust and any failure with healing on is a real lost
		// path, not impatience. The total span (6.2ms) also stays under the
		// watchdog's patience window: a doomed operation fails — and
		// resumes its rank — before quiescent retry churn reads as a wedge.
		cfg.RequestTimeout = 200 * sim.Microsecond
		cfg.MaxRetries = 4
		cfg.CreditTimeout = 400 * sim.Microsecond
	})
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	eng, topo, inj := rt.Engine(), rt.Topology(), rt.Config().Faults

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
	led := make(ledger, n)

	body := func(r *armci.Rank) {
		if victimSet[r.Node()] {
			// Victim ranks idle past the detection window so the membership
			// monitors (which run while any rank is live) outlast the last
			// crash, its confirmation and any recovery.
			r.Sleep(2 * chaosHorizon)
			return
		}
		rng := rand.New(sim.NewSource(c.Seed*1_000_003 + int64(r.Rank())))
		r.Sleep(sim.Time(rng.Int63n(int64(50 * sim.Microsecond))))
		p := armci.Pool(r)
		one := []float64{1}
		for i := 0; i < c.OpsPerRank; i++ {
			target := survivors[rng.Intn(len(survivors))]
			h := p.NbAcc(target, "chaos", 8*r.Rank(), 1.0, one)
			r.Wait(h)
			err := h.Err()
			p.Release(h)
			led.record(r.Rank(), err)
			// Classify a failure against ground truth at failure time: no
			// live admissible route means a partition, the one failure mode
			// healing is not allowed to paper over.
			if err != nil {
				if _, ok := core.ReplacementHop(topo, r.Node(), target/c.PPN, inj.NodeDown); !ok {
					led[r.Rank()].partitioned++
				}
			}
			r.Sleep(sim.Time(int64(20*sim.Microsecond) + rng.Int63n(int64(60*sim.Microsecond))))
		}
	}
	if err := rt.Run(body); err != nil {
		return nil, err
	}
	rt.FillMetrics()

	t := led.total()
	res := &ChaosResult{
		Issued: t.issued(), Completed: t.completed, Failed: t.failed, Partitioned: t.partitioned,
		Victims: victims, Elapsed: eng.Now(), Stats: rt.Stats(),
	}
	// applied(o) sums slot o over every rank's memory; each +1 is exact in
	// float64 at these counts. Each rank's memory is looked up once: the
	// checks below read n slots of it.
	mem := make([][]byte, n)
	for t := range mem {
		mem[t] = rt.Memory(t, "chaos")
	}
	applied := func(o int) (lo, hi float64) {
		for t := 0; t < n; t++ {
			lo += armci.GetFloat64(mem[t], 8*o)
		}
		return lo, lo
	}
	if err := led.check(rt, survivors, applied); err != nil {
		return nil, fmt.Errorf("chaos %v seed %d: %w", spec, c.Seed, err)
	}
	// Victim ranks issued nothing, so their slots stay zero.
	for _, v := range victims {
		for p := 0; p < c.PPN; p++ {
			if got, _ := applied(v*c.PPN + p); got != 0 {
				return nil, fmt.Errorf("chaos %v seed %d: idle victim rank %d's slot sums to %g", spec, c.Seed, v*c.PPN+p, got)
			}
		}
	}
	// Bounded detection. Every observer confirmation must land within
	// armci.DetectionBound of the crash (or of the observer's reboot or
	// takeover, whichever is later).
	if c.Heal && res.Stats.Confirms > 0 && res.Stats.MaxDetectLatency > armci.DetectionBound {
		return nil, fmt.Errorf("chaos %v seed %d: detection latency %v exceeds bound %v",
			spec, c.Seed, res.Stats.MaxDetectLatency, armci.DetectionBound)
	}
	// The ledger fingerprint: every rank's outcome counters plus the full
	// applied matrix plus the final clock. This is the bit-identity oracle —
	// every rerun must reproduce it exactly.
	h := ckpt.MixInit
	for o := range led {
		row := &led[o]
		h = ckpt.Mix(h, uint64(row.issued()))
		h = ckpt.Mix(h, uint64(row.completed))
		h = ckpt.Mix(h, uint64(row.failed))
		h = ckpt.Mix(h, uint64(row.partitioned))
		for t := 0; t < n; t++ {
			h = ckpt.MixF64(h, armci.GetFloat64(mem[t], 8*o))
		}
	}
	h = ckpt.Mix(h, uint64(res.Elapsed))
	res.Fingerprint = h
	return res, nil
}

// stormSchedule builds the deterministic storm bursts against the hot node:
// burst i squeezes the ejection port to a quarter of its bandwidth in
// 50us on/off half-periods for 300us, starting at 100us + i*4ms. The 4 ms
// spacing lets a run finish paying for one burst before the next lands, so
// elapsed time reflects per-storm recovery cost rather than one merged
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
