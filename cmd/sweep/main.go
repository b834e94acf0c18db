// Command sweep runs parameter sweeps of the paper's experiments on a
// bounded worker pool with a content-addressed result cache, reproducing
// every figure's grid (Figs 5-9) end-to-end in one invocation.
//
// A sweep is declared by a grid spec (grammar in docs/SWEEP.md):
// semicolon-separated key=value fields whose values are comma-separated
// axis lists. Each cell of the cross-product is one deterministic
// simulation; the pool only changes wall-clock time, never results — the
// merged tables are byte-identical at every -j.
//
// Presets reproduce the paper's grids:
//
//	sweep -preset fig5                reproduce Figure 5 (memory scaling)
//	sweep -preset fig6 -j 8           reproduce Figure 6 (vectored put)
//	sweep -preset fig7 -j 8           reproduce Figure 7 (fetch-&-add)
//	sweep -preset fig8 -j 8           reproduce Figure 8 (NAS LU)
//	sweep -preset fig9a -j 8          reproduce Figure 9(a) (NWChem DFT)
//	sweep -preset fig9b -j 8          reproduce Figure 9(b) (NWChem CCSD(T))
//	sweep -preset fig6-ci             the reduced grid CI runs per PR
//	sweep -preset fig6-family         the reduced grid across all six
//	                                  topology families (incl. hyperx and
//	                                  dragonfly specs) CI smokes
//	sweep -preset fig6-agg-ci -assert-agg
//	                                  aggregation off/on paired grid; fails
//	                                  if aggregation regressed latency
//	sweep -preset chaos -j 8          crash/recover chaos grid, healing
//	                                  off vs on, three schedules per cell
//	sweep -preset chaos-ci            the reduced chaos grid CI smokes
//
// Custom grids compose any axes, e.g. a topology × message-size × fault
// sweep:
//
//	sweep -grid 'exp=contention;topos=fcg,mfcg;nodes=64;ppn=2;iters=5;\
//	             msgsize=128,256,1024;levels=20;faults=none|cht:1@t=1ms' -j 8
//
// Results land in merged figure-compatible tables on stdout (-csv for CSV)
// and in the content-addressed cache, so re-running a sweep re-executes
// only points whose configuration changed; a one-line summary on stderr
// counts executed, cached and failed points. -metrics appends per-run
// observability snapshots and the sweep engine's own progress metrics;
// -trace writes all runs into one Chrome-trace file (forces -j 1, bypasses
// the cache), and -trace-sched adds scheduler run-slices to it.
//
// An interrupted sweep (SIGKILL, OOM, power loss) is recovered by running
// the same command again with the same -cache: finished points are cache
// hits, unfinished ones run fresh and deterministically, and the output is
// byte-identical to an uninterrupted sweep (docs/SWEEP.md).
//
// Usage:
//
//	sweep [-preset fig5|fig6|fig7|fig8|fig9a|fig9b|fig6-ci|fig6-family|fig6-agg-ci|chaos|chaos-ci]
//	      [-grid SPEC] [-j N]
//	      [-cache DIR] [-csv] [-metrics] [-trace FILE [-trace-sched]]
//	      [-progress] [-list] [-assert-agg]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"armcivt/internal/obs"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

// presets are the paper's grids. fig6-ci is the reduced grid CI runs on
// every PR to accumulate the perf trajectory: small enough for minutes,
// contended enough that the pool pays off.
var presets = map[string]string{
	"fig5":    "exp=memscale;ppn=12;procs=768,1536,3072,6144,12288",
	"fig6":    "exp=contention;op=vput;nodes=256;ppn=4;iters=20;sample=8;levels=none,11,20",
	"fig7":    "exp=contention;op=fadd;nodes=256;ppn=4;iters=20;sample=8;levels=none,11,20",
	"fig8":    "exp=lu;ppn=12;iters=12;procs=192,384,768,1536",
	"fig9a":   "exp=dft;ppn=12;iters=3;procs=768,1536,3072,6144",
	"fig9b":   "exp=ccsd;ppn=12;topos=fcg,mfcg;procs=768,1536,3072",
	"fig6-ci": "exp=contention;op=vput;topos=fcg,mfcg,cfcg;nodes=64;ppn=2;iters=5;sample=8;stream=8;levels=none,11,20",
	// fig6-family runs the hot-spot point across every topology family,
	// including the generalized HyperX and Dragonfly specs, at the reduced
	// CI scale: the cross-family contention comparison of EXPERIMENTS.md.
	"fig6-family": "exp=contention;op=vput;topos=fcg,mfcg,cfcg,hypercube,hyperx,dragonfly;nodes=64;ppn=2;iters=5;sample=8;stream=8;levels=20",
	// fig6-agg-ci pairs every cell with aggregation off and on: a pipelined
	// (window=8) hot-spot grid of small vectored puts (64B segments keep the
	// payload under the aggregation threshold). CI runs it with -assert-agg,
	// which fails the build if any aggregated mean exceeds its baseline.
	"fig6-agg-ci": "exp=contention;op=vput;topos=fcg,mfcg,cfcg;nodes=64;ppn=2;iters=5;sample=8;stream=8;levels=20;msgsize=64;window=8;agg=off,on",
	// chaos runs randomized crash/recover schedules against every topology
	// with healing off and on: the off arm demonstrates lost paths on the
	// multi-hop topologies, the on arm asserts the self-healing invariants
	// (figures.Chaos fails the point if any is violated). chaos-ci is the
	// per-PR smoke: one schedule per topology at the acceptance scale.
	"chaos":    "exp=chaos;nodes=64;ppn=2;iters=20;crashes=1,2,3;heal=off,on;seeds=1,2,3",
	"chaos-ci": "exp=chaos;nodes=64;ppn=2;iters=10;crashes=3;heal=off,on;seeds=1",
}

func main() {
	preset := flag.String("preset", "", "named grid: fig5, fig6, fig7, fig8, fig9a, fig9b, fig6-ci, fig6-family, fig6-agg-ci, chaos, or chaos-ci")
	gridSpec := flag.String("grid", "", "grid spec (see docs/SWEEP.md); overrides -preset")
	j := flag.Int("j", runtime.NumCPU(), "worker-pool size (1 = serial)")
	cacheDir := flag.String("cache", ".sweep-cache", "result cache directory ('' disables caching)")
	csv := flag.Bool("csv", false, "emit CSV tables")
	metrics := flag.Bool("metrics", false, "append per-run observability snapshots and sweep engine metrics")
	traceFile := flag.String("trace", "", "write all runs as one Chrome-trace JSON file (forces -j 1, bypasses cache)")
	traceSched := flag.Bool("trace-sched", false, "with -trace: include scheduler run-slices of contention points (verbose)")
	progress := flag.Bool("progress", false, "report per-point progress and ETA on stderr")
	list := flag.Bool("list", false, "print the expanded points and cache keys without running")
	assertAgg := flag.Bool("assert-agg", false, "compare aggregation off/on pairs and fail if aggregation regressed latency (needs agg=off,on in the grid)")
	flag.Parse()
	if *traceSched && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "-trace-sched needs -trace")
		os.Exit(2)
	}

	spec := *gridSpec
	if spec == "" {
		name := *preset
		if name == "" {
			name = "fig6"
		}
		var ok bool
		if spec, ok = presets[name]; !ok {
			fmt.Fprintf(os.Stderr, "unknown preset %q (want fig5, fig6, fig7, fig8, fig9a, fig9b, fig6-ci, fig6-family, fig6-agg-ci, chaos, or chaos-ci)\n", name)
			os.Exit(2)
		}
	}
	grid, err := sweep.ParseGrid(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	grid.Metrics = *metrics
	points, err := grid.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *list {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("%d points: %s", len(points), spec),
			Header: []string{"index", "key", "label", "level", "cache"},
		}
		for _, p := range points {
			state := "miss"
			if *cacheDir != "" {
				if _, err := os.Stat(fmt.Sprintf("%s/%s.json", *cacheDir, p.Key())); err == nil {
					state = "hit"
				}
			}
			tbl.AddRow(p.Index, p.Key()[:12], p.Label(), p.Level, state)
		}
		tbl.Write(os.Stdout)
		return
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
	}
	reg := obs.NewRegistry()
	runner := &sweep.Runner{
		Workers:     *j,
		CacheDir:    *cacheDir,
		Metrics:     reg,
		ExecOptions: sweep.ExecOptions{Trace: tracer, TraceSched: *traceSched},
	}
	if *progress {
		runner.Progress = func(done, total int, st sweep.Stats, eta time.Duration) {
			fmt.Fprintf(os.Stderr, "sweep: %d/%d done (%d cached, %d failed), elapsed %s, eta %s\n",
				done, total, st.CacheHits, st.Failures,
				st.Wall.Round(time.Millisecond), eta.Round(time.Second))
		}
	}
	results, st := runner.Run(points)

	for i, g := range sweep.Groups(results) {
		if i > 0 {
			fmt.Println()
		}
		tbl := stats.SeriesTable(g.Title, g.XLabel, g.Series)
		if *csv {
			fmt.Printf("# %s\n", tbl.Title)
			tbl.WriteCSV(os.Stdout)
		} else {
			tbl.Write(os.Stdout)
		}
		if g.Contention {
			fmt.Println()
			sum := sweep.SummaryTable("summary: "+g.Title, g.Series)
			if *csv {
				sum.WriteCSV(os.Stdout)
			} else {
				sum.Write(os.Stdout)
			}
		}
		for _, snap := range g.Snapshots {
			fmt.Println()
			if *csv {
				snap.WriteCSV(os.Stdout)
			} else {
				snap.Write(os.Stdout)
			}
		}
	}
	if *metrics {
		fmt.Println()
		reg.Snapshot("sweep engine metrics").Write(os.Stdout)
	}

	fmt.Fprintf(os.Stderr,
		"sweep: %d points in %s with %d workers: %d executed, %d cached (%.0f%% hit rate), %d failed, speedup vs serial %.2fx\n",
		st.Points, st.Wall.Round(time.Millisecond), st.Workers, st.Executed,
		st.CacheHits, 100*st.CacheHitRate(), st.Failures, st.SpeedupVsSerial())
	if st.CacheCorrupt > 0 {
		fmt.Fprintf(os.Stderr, "sweep: recovery: %d corrupt cache entr(ies) evicted and re-executed\n", st.CacheCorrupt)
	}

	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %d trace events to %s (%d dropped)\n",
			tracer.Len(), *traceFile, tracer.Dropped())
	}
	if st.Failures > 0 {
		for _, r := range results {
			if r.Err != "" {
				fmt.Fprintf(os.Stderr, "sweep: point %d (%s, %s) failed: %s\n",
					r.Point.Index, r.Label, r.Point.Level, r.Err)
			}
		}
		os.Exit(1)
	}
	if *assertAgg {
		cmps, err := sweep.CompareAgg(results)
		tbl := &stats.Table{
			Title:  "aggregation off/on comparison (mean us/op)",
			Header: []string{"series", "agg off", "agg on", "speedup"},
		}
		for _, c := range cmps {
			tbl.AddRow(c.Label, c.MeanOff, c.MeanOn, c.Speedup)
		}
		fmt.Println()
		tbl.Write(os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
