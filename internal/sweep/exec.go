package sweep

import (
	"cmp"
	"errors"
	"fmt"

	"armcivt/internal/apps/ccsd"
	"armcivt/internal/apps/dft"
	"armcivt/internal/apps/lu"
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/figures"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

// Result is the outcome of one point. Series-valued experiments (contention)
// fill X/Y; scalar ones (every other experiment) fill Value. Err is set
// instead when the run failed or panicked — a failed point never aborts the
// sweep. WallNS is the wall-clock cost of the execution that produced the
// result, preserved across cache hits (Cached distinguishes the two).
type Result struct {
	Point    Point        `json:"point"`
	Label    string       `json:"label"`
	X        []float64    `json:"x,omitempty"`
	Y        []float64    `json:"y,omitempty"`
	Value    float64      `json:"value,omitempty"`
	Snapshot *stats.Table `json:"snapshot,omitempty"`
	WallNS   int64        `json:"wall_ns"`
	Err      string       `json:"err,omitempty"`
	Cached   bool         `json:"-"`
	// CacheCorrupt marks a point whose cache entry existed but was damaged
	// (truncated, torn, unparseable). The entry was evicted and the point
	// re-executed; the runner counts these as sweep_cache_corrupt_total.
	CacheCorrupt bool `json:"-"`
}

// Series converts a series-valued result into a labeled stats.Series.
func (r Result) Series() *stats.Series {
	return &stats.Series{Label: r.Label, X: r.X, Y: r.Y}
}

// ExecOptions carries per-sweep execution knobs into the executor. Nothing
// here may change a point's result — options deliberately do not participate
// in cache keys.
type ExecOptions struct {
	// Trace, when non-nil, receives every run's spans; the point index is
	// used as the trace process id. Tracing implies a serial pool (the
	// tracer is not goroutine-safe), which Runner.Run enforces.
	Trace *obs.Tracer
	// TraceSched additionally records every simulated process's scheduler
	// run-slices into Trace (verbose). Only contention points honor it.
	TraceSched bool
	// Shards is the simulation kernel's conservative-parallel shard count
	// for every executed point (<= 1 serial). Results are bit-identical for
	// every value — the sharded-kernel determinism contract
	// (docs/PARALLELISM.md) — which is why cached results stay valid across
	// shard counts.
	Shards int
}

// Execute runs one point to completion and returns its result. It is a pure
// function of the point (plus opts): the same point always produces the same
// X/Y/Value, which is what makes results cacheable and worker counts
// invisible. Failures are reported in Result.Err, not as an error, so a
// sweep records them and moves on.
func Execute(p Point, opts ExecOptions) Result {
	res := Result{Point: p, Label: p.Label()}
	spec, err := core.ParseSpec(p.Topo)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	e, ok := experiments[p.Experiment]
	if !ok {
		res.Err = fmt.Sprintf("sweep: unknown experiment %q", p.Experiment)
		return res
	}
	var reg *obs.Registry
	if p.Metrics {
		reg = obs.NewRegistry()
	}
	caption, err := e.run(p, spec, opts, reg, &res)
	var werr *sim.WatchdogError
	var serr *armci.StallError
	switch {
	case errors.As(err, &werr):
		res.Err = werr.Report.String() // the full stall report
		if errors.As(err, &serr) && len(serr.Edges) > 0 {
			res.Err += fmt.Sprintf("  credit-starved edges (%d):\n", len(serr.Edges))
			for _, e := range serr.Edges {
				res.Err += fmt.Sprintf("    %v\n", e)
			}
		}
	case err != nil:
		res.Err = err.Error()
	case reg != nil && caption != "":
		res.Snapshot = reg.Snapshot(caption)
	}
	return res
}

// runContention runs a Figs 6-7 point; its result is the per-rank latency
// series.
func runContention(p Point, spec core.Spec, opts ExecOptions, reg *obs.Registry, res *Result) (string, error) {
	cfg := figures.ContentionConfig{
		Topo:           spec,
		Nodes:          p.Nodes,
		PPN:            p.PPN,
		Iters:          p.Iters,
		ContenderEvery: p.ContenderEvery,
		VecSegs:        p.VecSegs,
		VecSegLen:      p.MsgSize,
		SampleEvery:    p.SampleEvery,
		StreamLimit:    p.StreamLimit,
		Seed:           p.EffectiveSeed(),
		Window:         p.Window,
		Aggregation:    p.Agg == "on",
		Heal:           p.Heal == "on",
		Shards:         opts.Shards,
		Metrics:        reg,
		Trace:          opts.Trace,
		TracePID:       p.Index,
		TraceSched:     opts.TraceSched,
	}
	if p.Op == "fadd" {
		cfg.Op = figures.OpFetchAdd
	}
	if p.Faults != "" {
		fspec, err := faults.ParseSpec(p.Faults)
		if err != nil {
			return "", err
		}
		cfg.Faults = fspec
	}
	s, err := figures.Contention(cfg)
	if err != nil {
		return "", err
	}
	res.X, res.Y = s.X, s.Y
	return fmt.Sprintf("metrics: %s, %s", p.Topo, LevelName(p.Level)), nil
}

// runMemscale runs a Fig 5 point; its scalar is the master-process memory
// in MBytes. It records no metrics.
func runMemscale(p Point, spec core.Spec, _ ExecOptions, _ *obs.Registry, res *Result) (string, error) {
	v, err := figures.Fig5PointSpec(p.Procs, p.PPN, spec)
	res.Value = v
	return "", err
}

// runApp runs an application-proxy point of Figs 8-9; its scalar is rank
// 0's execution time in seconds for the proxy app builds.
func runApp(app func(Point) figures.App) func(Point, core.Spec, ExecOptions, *obs.Registry, *Result) (string, error) {
	return func(p Point, spec core.Spec, opts ExecOptions, reg *obs.Registry, res *Result) (string, error) {
		v, err := figures.AppPoint(spec, p.Procs, p.PPN, opts.Shards, app(p), reg, opts.Trace, p.Index)
		if err != nil {
			return "", err
		}
		res.Value = v
		return fmt.Sprintf("metrics: %s %s, %d procs", p.Experiment, p.Topo, p.Procs), nil
	}
}

// The application proxies at the paper's problem sizes; iters sets the LU
// SSOR and DFT SCF iteration counts.
func luApp(p Point) figures.App {
	return figures.LU(lu.Config{NX: 2040, NY: 2040, Iters: p.Iters, CellFlop: 400})
}

func dftApp(p Point) figures.App {
	return figures.DFT(dft.Config{N: 192, BlockSize: 8, SCFIters: p.Iters, TaskFlop: 100 * sim.Microsecond, HotBlocks: 4, CounterBatch: 4})
}

func ccsdApp(Point) figures.App {
	return figures.CCSD(ccsd.Config{N: 1024, BlockSize: 64, TasksPerRank: 2, TaskFlop: 3 * sim.Millisecond})
}

// runChaos runs a chaos point. Its scalar is the failed-operation count:
// zero (barring partitions) with healing on, the lost-path count with it
// off — the pair the merged table compares.
func runChaos(p Point, spec core.Spec, opts ExecOptions, reg *obs.Registry, res *Result) (string, error) {
	cres, err := figures.Chaos(figures.ChaosConfig{
		Topo:       spec,
		Nodes:      p.Nodes,
		PPN:        p.PPN,
		OpsPerRank: p.Iters,
		Crashes:    p.Crashes,
		Seed:       p.EffectiveSeed(),
		Heal:       p.Heal == "on",
		Shards:     opts.Shards,
		Metrics:    reg,
		Trace:      opts.Trace,
		TracePID:   p.Index,
	})
	if err != nil {
		return "", err
	}
	res.Value = float64(cres.Failed)
	return fmt.Sprintf("metrics: chaos %s, %d crashes, heal %s", p.Topo, p.Crashes, cmp.Or(p.Heal, "off")), nil
}
