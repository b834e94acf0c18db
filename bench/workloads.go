package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"armcivt/internal/apps/dft"
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/figures"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// profile fixes every size. full is what BENCHMARK.json measures and the
// only one the program runs; bench_test.go smoke-runs the same code at toy
// sizes.
type profile struct {
	hotspotNodes int // x 4 PPN
	hotspotIters int
	chaosNodes   int // x 2 PPN
	scaleNodes   int
	dftNodes     int     // x 12 PPN
	big          int     // "64k" in layer-driver names
	driverDiv    int     // divides layer-driver iteration counts
	driverReps   int     // samples per layer driver; the median is reported
	minReps      int     // measured reps per run, whatever --seconds says
	refReps      int     // untraced reps a traced run compares its traced rep with
	minSetups    int     // set-up samples per run, and
	setupSeconds float64 // how long to keep sampling cheap set-ups
	// shape turns on the paper-shape inequalities (Fig 6c/7c, Fig 9a); they
	// need paper scale and do not hold on toy node counts.
	shape bool
}

var full = profile{
	hotspotNodes: 256, hotspotIters: 5, chaosNodes: 256, scaleNodes: 65536, dftNodes: 128,
	big: 65536, driverDiv: 1, driverReps: 5, minReps: 5, refReps: 2, minSetups: 7, setupSeconds: 1, shape: true,
}

// repOut is what one rep of a workload hands back for checking.
type repOut struct {
	fingerprint uint64
	virtUsPerOp float64 // simulated microseconds per one-sided op
	failedShare float64 // (failed + shed) / issued one-sided ops
	crashes     int
	checks      []check
	// Counts the harness returns directly; the traced rep's registry
	// supplies the rest. notMeasured where the harness returns none.
	ops         float64 // one-sided ops issued
	completions float64 // request chunks completed at their origin
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// workload is one closed, single-process batch run. setup stands the
// workload's runtimes up and tears them down without running a rank; rep is
// one full run. reg is nil on measured reps (Metrics: nil, Trace: nil) and a
// fresh registry on the traced rep; sp likewise.
type workload struct {
	name  string
	why   string
	setup func(p profile, seed int64, sp *spans) error
	rep   func(p profile, seed int64, reg *obs.Registry, sp *spans) (repOut, error)
}

var workloads = []workload{
	{
		name:  "hotspot",
		why:   "fault-free pooled path: blocking vectored puts and fetch-adds into rank 0 under 20% contention on four topologies; measured: rank-CHT hand-off 18% of CPU, event-heap pop 10%, no timeouts or probes",
		setup: hotspotSetup, rep: hotspotRep,
	},
	{
		name:  "chaos_heal",
		why:   "armed unpooled path: a node crash with healing on; timeouts, retries, and heartbeat probes that are 86% of 355k messages; measured: event-heap pop 36% of CPU, fabric.step 16%, hand-off 7%",
		setup: chaosSetup, rep: chaosRep,
	},
	{
		name:  "scale_64k",
		why:   "set-up dominated: 65536 nodes exist, 1024 ops run; measured: armci.New 21% of CPU, process spawn 17%, GC 13%, event-heap pop 5%; per-op protocol cost is noise",
		setup: scaleSetup, rep: scaleRep,
	},
	{
		name:  "app_dft",
		why:   "Fig 9a DFT proxy at 1536 cores on four topologies: ga block gets/accumulates, nxtval fetch-adds, 0.65 credit waits per op; measured: hand-off 17% of CPU, dft+ga code 15%, event-heap pop 13%",
		setup: dftSetup, rep: dftRep,
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func lower(k core.Kind) string { return strings.ToLower(k.String()) }

func geomean(xs []float64) float64 {
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// newRuntime is the set-up every workload shares: build the topology, then
// the runtime on a fresh engine. tweak edits the default config first.
func newRuntime(sp *spans, prefix string, kind core.Kind, nodes, ppn int, seed int64, tweak func(eng *sim.Engine, cfg *armci.Config)) (*armci.Runtime, error) {
	var topo core.Topology
	var err error
	sp.do("core_new", prefix+".core_new", func() { topo, err = core.New(kind, nodes) })
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	eng.Seed(seed)
	cfg := armci.DefaultConfig(nodes, ppn)
	cfg.Topology = topo
	if tweak != nil {
		tweak(eng, &cfg)
	}
	var rt *armci.Runtime
	sp.do("armci_new", prefix+".armci_new", func() { rt, err = armci.New(eng, cfg) })
	return rt, err
}

// --- hotspot: the paper's section V-B microbenchmark ---

var hotspotOps = []struct {
	name string
	op   figures.ContentionOp
}{
	{"putv", figures.OpVectoredPut},
	{"fadd", figures.OpFetchAdd},
}

const hotspotPPN = 4

func hotspotSetup(p profile, seed int64, sp *spans) error {
	for _, op := range hotspotOps {
		for _, kind := range core.Kinds {
			rt, err := newRuntime(sp, "hotspot."+op.name+"."+lower(kind), kind, p.hotspotNodes, hotspotPPN, seed, nil)
			if err != nil {
				return err
			}
			sp.do("shutdown", "hotspot."+op.name+"."+lower(kind)+".shutdown", rt.Shutdown)
		}
	}
	return nil
}

func hotspotRep(p profile, seed int64, reg *obs.Registry, sp *spans) (repOut, error) {
	out := repOut{ops: notMeasured, completions: notMeasured}
	h := fnv.New64a()
	var means []float64
	for _, op := range hotspotOps {
		mean := map[core.Kind]float64{}
		for _, kind := range core.Kinds {
			cfg := figures.ContentionConfig{
				Kind: kind, Nodes: p.hotspotNodes, PPN: hotspotPPN, Iters: p.hotspotIters,
				ContenderEvery: 5, // the paper's 20% contention scenario
				SampleEvery:    p.hotspotNodes * hotspotPPN / 8,
				Op:             op.op, Seed: seed, Metrics: reg,
			}
			var err error
			var xs, ys []float64
			sp.do("figures", "hotspot."+op.name+"."+lower(kind), func() {
				s, e := figures.Contention(cfg)
				if err = e; e == nil {
					xs, ys = s.X, s.Y
				}
			})
			if err != nil {
				return out, fmt.Errorf("hotspot %s %v: %w", op.name, kind, err)
			}
			out.checks = append(out.checks, checkf("hotspot."+op.name+"."+lower(kind)+".samples", len(ys) == 8, "%d measured turns, want 8", len(ys)))
			sum := 0.0
			for i, y := range ys {
				fmt.Fprintf(h, "%x:%x;", math.Float64bits(xs[i]), math.Float64bits(y))
				sum += y
			}
			mean[kind] = sum / float64(len(ys))
			means = append(means, mean[kind])
		}
		if p.shape {
			out.checks = append(out.checks, checkf("hotspot."+op.name+".fcg_slower_than_mfcg", mean[core.FCG] > mean[core.MFCG],
				"mean per-op latency FCG %.1f us, MFCG %.1f us (Fig 6c/7c shape)", mean[core.FCG], mean[core.MFCG]))
		}
	}
	out.fingerprint = h.Sum64()
	out.virtUsPerOp = geomean(means)
	return out, nil
}

// --- chaos_heal: the armed, unpooled path ---

// One crash on 256 nodes, not the 8 on 512 of BENCH_shards.json's point. With
// two or more victims some seeds partition an origin from its target, the
// failed operation's exhausted retries double the run's virtual length and
// host time (5 ms or 10 ms, nothing between), and no bound could hold across
// seeds. One victim cannot partition survivors, so no operation fails. And a
// 512-node rep costs 4.3 s: too long for a run to take minReps of them.
const (
	chaosPPN     = 2
	chaosOps     = 20
	chaosCrashes = 1
	chaosHorizon = 2 * sim.Millisecond // figures.Chaos's schedule window
)

func chaosConfig(p profile, seed int64) figures.ChaosConfig {
	return figures.ChaosConfig{Kind: core.MFCG, Nodes: p.chaosNodes, PPN: chaosPPN, OpsPerRank: chaosOps, Crashes: chaosCrashes, Seed: seed, Heal: true}
}

func chaosSetup(p profile, seed int64, sp *spans) error {
	rt, err := newRuntime(sp, "chaos_heal", core.MFCG, p.chaosNodes, chaosPPN, seed, func(eng *sim.Engine, cfg *armci.Config) {
		sp.do("faults_new", "chaos_heal.faults_new", func() {
			schedule := faults.RandomNodeFaults(seed, p.chaosNodes, chaosCrashes, chaosHorizon)
			cfg.Faults = faults.NewInjector(eng, p.chaosNodes, &faults.Spec{Faults: schedule})
		})
		cfg.Heal.Enabled = true
	})
	if err != nil {
		return err
	}
	sp.do("shutdown", "chaos_heal.shutdown", rt.Shutdown)
	return nil
}

func chaosRep(p profile, seed int64, reg *obs.Registry, sp *spans) (repOut, error) {
	out := repOut{ops: notMeasured, completions: notMeasured}
	cfg := chaosConfig(p, seed)
	cfg.Metrics = reg
	var res *figures.ChaosResult
	var err error
	sp.do("figures", "chaos_heal.figures_chaos", func() { res, err = figures.Chaos(cfg) })
	if err != nil {
		return out, fmt.Errorf("chaos_heal: %w", err)
	}
	out.checks = append(out.checks,
		checkf("chaos_heal.ledger", res.Issued == res.Completed+res.Failed, "issued %d, completed %d, failed %d", res.Issued, res.Completed, res.Failed),
		checkf("chaos_heal.only_partitions_fail", res.Partitioned <= res.Failed, "partitioned %d, failed %d", res.Partitioned, res.Failed))
	out.fingerprint = res.Fingerprint
	out.virtUsPerOp = res.Elapsed.Micros() / float64(res.Completed)
	out.failedShare = float64(res.Failed) / float64(res.Issued)
	out.crashes = len(res.Victims)
	out.ops = float64(res.Stats.Ops)
	out.completions = float64(res.Stats.Completions)
	return out, nil
}

// --- scale_64k: set-up dominated ---

func scaleSetup(p profile, seed int64, sp *spans) error {
	rt, err := newRuntime(sp, "scale_64k", core.Hypercube, p.scaleNodes, 1, seed, nil)
	if err != nil {
		return err
	}
	sp.do("shutdown", "scale_64k.shutdown", rt.Shutdown)
	return nil
}

func scaleRep(p profile, seed int64, _ *obs.Registry, sp *spans) (repOut, error) {
	out := repOut{ops: notMeasured, completions: notMeasured}
	var res *figures.ScaleResult
	var err error
	sp.do("figures", "scale_64k.figures_scale", func() { res, err = figures.Scale(figures.ScaleConfig{Nodes: p.scaleNodes, Seed: seed}) })
	if err != nil {
		return out, fmt.Errorf("scale_64k: %w", err)
	}
	out.checks = append(out.checks, checkf("scale_64k.ops", res.Ops == 1024, "%d ops, want 1024", res.Ops))
	out.fingerprint = res.Fingerprint
	out.virtUsPerOp = res.VirtualTime.Micros() / float64(res.Ops)
	out.ops = float64(res.Ops)
	return out, nil
}

// --- app_dft: the Fig 9a loop, driven from public layer calls ---

const dftPPN = 12

// One SCF iteration, not dft.Config's default 3: the iteration is the loop's
// repeating unit, and one keeps a rep short enough that a run takes at least
// minReps of them inside --seconds.
var dftConfig = dft.Config{SCFIters: 1}

func dftSetup(p profile, seed int64, sp *spans) error {
	for _, kind := range core.Kinds {
		prefix := "app_dft." + lower(kind)
		rt, err := newRuntime(sp, prefix, kind, p.dftNodes, dftPPN, seed, nil)
		if err != nil {
			return err
		}
		sp.do("dft_setup", prefix+".dft_setup", func() { dft.Setup(rt, dftConfig) })
		sp.do("shutdown", prefix+".shutdown", rt.Shutdown)
	}
	return nil
}

func dftRep(p profile, seed int64, reg *obs.Registry, sp *spans) (repOut, error) {
	var out repOut
	h := fnv.New64a()
	var usPerOp []float64
	secs := map[core.Kind]float64{}
	for _, kind := range core.Kinds {
		prefix := "app_dft." + lower(kind)
		rt, err := newRuntime(sp, prefix, kind, p.dftNodes, dftPPN, seed, func(_ *sim.Engine, cfg *armci.Config) { cfg.Metrics = reg })
		if err != nil {
			return out, err
		}
		var st *dft.State
		sp.do("dft_setup", prefix+".dft_setup", func() { st = dft.Setup(rt, dftConfig) })
		var res dft.Result
		sp.do("rt_run", prefix+".rt_run", func() {
			err = rt.Run(func(r *armci.Rank) {
				if got := dft.Run(r, st); r.Rank() == 0 {
					res = got
				}
			})
		})
		var as armci.Stats
		sp.do("stats", prefix+".stats", func() {
			as = rt.Stats()
			rt.FillMetrics() // exports fabric and runtime totals; no-op without a registry
		})
		sp.do("shutdown", prefix+".shutdown", rt.Shutdown)
		if err != nil {
			return out, fmt.Errorf("app_dft %v: %w", kind, err)
		}
		verr := res.Verify()
		out.checks = append(out.checks, checkf(prefix+".verify", verr == nil, "%v", verr))
		fmt.Fprintf(h, "%x;", math.Float64bits(res.Seconds))
		secs[kind] = res.Seconds
		usPerOp = append(usPerOp, res.Seconds*1e6/float64(as.Ops))
		out.ops += float64(as.Ops)
		out.completions += float64(as.Completions)
	}
	if p.shape {
		ok := secs[core.MFCG] < secs[core.FCG] && secs[core.FCG] < secs[core.Hypercube]
		out.checks = append(out.checks, checkf("app_dft.mfcg_fcg_hypercube_order", ok,
			"virtual seconds MFCG %.6f, FCG %.6f, Hypercube %.6f (Fig 9a shape)", secs[core.MFCG], secs[core.FCG], secs[core.Hypercube]))
	}
	out.fingerprint = h.Sum64()
	out.virtUsPerOp = geomean(usPerOp)
	return out, nil
}
