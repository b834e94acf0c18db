// Command vtreport regenerates the paper's complete evaluation in one run
// and writes a markdown report: Figure 5 (memory), Figures 6-7 (contention),
// Figure 8 (NAS LU) and Figures 9a/9b (NWChem proxies), plus the structural
// properties of Figures 1-4.
//
// The default -quick mode runs reduced-scale experiments (seconds); -full
// uses the paper-scale parameters documented in EXPERIMENTS.md.
//
// Every figure is a list of internal/sweep grid strings, and all their
// points execute through one sweep worker pool: -j N parallelizes the whole
// report across N workers. Every run is an independent deterministic
// simulation, so the report is byte-identical at any -j.
//
// With -metrics, each contention run (Figs 6-7) appends its observability
// snapshot to the report; with -trace FILE all contention runs are written
// into one Chrome-trace JSON file, one trace process per run (see
// docs/OBSERVABILITY.md; forces -j 1). The report runs the paper's
// fault-free configurations; fault schedules and healing are the faults=
// and heal= keys of a cmd/sweep grid.
//
// Usage:
//
//	vtreport [-quick|-full] [-j N] [-metrics] [-trace FILE] > report.md
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/obs"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

// figure is one section of the report: its heading, the grid its points
// come from, and how its results render.
type figure struct {
	heading, grid string
	render        func(w io.Writer, rs []sweep.Result)
}

// sections lists the report's sections in order at one scale. contention
// holds the keys every Figs 6-7 grid shares; the other arguments are whole
// grids.
func sections(contention, lu, dft, ccsd string) []figure {
	out := []figure{{"Figure 5: master-process memory vs processes",
		"exp=memscale;ppn=12;procs=768,1536,3072,6144,12288", fig5}}
	for _, lv := range []struct{ key, topos string }{
		{"none", "fcg,mfcg,cfcg,hypercube"},
		{"11", "fcg,mfcg,cfcg"}, // the paper drops hypercube under load
		{"20", "fcg,mfcg,cfcg"},
	} {
		name := sweep.LevelName(lv.key)
		for _, fig := range []struct{ heading, op string }{
			{"Figure 6 (vectored put), " + name, "vput"}, {"Figure 7 (fetch-&-add), " + name, "fadd"},
		} {
			grid := fmt.Sprintf("exp=contention;op=%s;levels=%s;topos=%s;%s", fig.op, lv.key, lv.topos, contention)
			out = append(out, figure{fig.heading, grid, summary})
		}
	}
	return append(out,
		figure{"Figure 8: NAS LU execution time", lu, table("time (s)")},
		figure{"Figure 9(a): NWChem DFT SiOSi3 proxy", dft, table("time (s)")},
		figure{"Figure 9(b): NWChem CCSD(T) water proxy", ccsd, table("time (s)")})
}

func quickScale() []figure {
	return sections("nodes=64;ppn=2;iters=5;sample=4;stream=8",
		"exp=lu;ppn=12;iters=6;procs=48,192",
		"exp=dft;ppn=4;iters=2;procs=512,1024",
		"exp=ccsd;ppn=4;procs=256,512")
}

func fullScale() []figure {
	return sections("nodes=256;ppn=4;iters=20;sample=8",
		"exp=lu;ppn=12;iters=12;procs=192,384,768,1536",
		"exp=dft;ppn=12;iters=3;procs=1536,3072,6144",
		"exp=ccsd;ppn=12;procs=768,1536,3072")
}

func main() {
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	jobs := flag.Int("j", 1, "worker-pool size for every figure's points")
	metrics := flag.Bool("metrics", false, "append observability snapshots to the contention sections")
	traceFile := flag.String("trace", "", "write contention runs as one Chrome-trace JSON file (forces -j 1)")
	flag.Parse()
	figs := quickScale()
	mode := "quick"
	if *full {
		figs = fullScale()
		mode = "full"
	}
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
	}
	w := os.Stdout
	started := time.Now()
	fmt.Fprintf(w, "# Virtual-topology evaluation report (%s mode)\n\n", mode)

	section(w, "Figures 1-4: topology structure (27 nodes)")
	structure(w, 27)

	// Expand every figure's grid into one point list, so -j parallelizes
	// across the whole report; each figure then renders its own slice of
	// the results.
	var points []sweep.Point
	bounds := make([]int, len(figs)+1)
	for i, f := range figs {
		g, err := sweep.ParseGrid(f.grid)
		check(err)
		g.Metrics = *metrics
		ps, err := g.Expand()
		check(err)
		points = append(points, ps...)
		bounds[i+1] = len(points)
	}
	sweep.Reindex(points)
	runner := &sweep.Runner{Workers: *jobs, ExecOptions: sweep.ExecOptions{Trace: tracer}}
	results, _ := runner.Run(points)
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
	}
	for i, f := range figs {
		section(w, f.heading)
		f.render(w, results[bounds[i]:bounds[i+1]])
	}

	section(w, "Topology advisor (Section VIII recommendations)")
	advisor(w)

	if tracer != nil {
		f, err := os.Create(*traceFile)
		check(err)
		check(tracer.WriteJSON(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (%d dropped)\n",
			tracer.Len(), *traceFile, tracer.Dropped())
	}

	fmt.Fprintf(w, "\nGenerated in %v.\n", time.Since(started).Round(time.Millisecond))
}

func section(w io.Writer, title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }

// table renders a figure's one merged table under title.
func table(title string) func(io.Writer, []sweep.Result) {
	return func(w io.Writer, rs []sweep.Result) {
		g := sweep.Groups(rs)[0]
		stats.SeriesTable(title, g.XLabel, g.Series).Write(w)
	}
}

// fig5 renders Figure 5's table, then the buffer-driven RSS increment over
// the base footprint at the largest process count and each sparse
// topology's reduction against FCG: the paper's headline Fig 5 numbers.
func fig5(w io.Writer, rs []sweep.Result) {
	table("memory (MBytes)")(w, rs)
	// The grid's topologies are the paper's four, FCG first, and FCG is
	// built at every process count.
	series := sweep.Groups(rs)[0].Series
	fcg := series[0]
	procs := fcg.X[len(fcg.X)-1]
	base := float64(armci.DefaultConfig(1, 1).BaseRSSBytes) / (1 << 20)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Buffer-driven RSS increment over the base footprint (paper: FCG +812 MB at 12,288 procs,")
	fmt.Fprintln(w, "cut 7.5x / 16.6x / 45x by MFCG / CFCG / Hypercube):")
	fcgInc := fcg.YAt(procs) - base
	fmt.Fprintf(w, "  FCG        +%7.1f MB\n", fcgInc)
	for _, s := range series[1:] {
		inc := s.YAt(procs) - base
		if math.IsNaN(inc) {
			fmt.Fprintf(w, "  %-10s n/a\n", s.Label)
			continue
		}
		fmt.Fprintf(w, "  %-10s +%7.1f MB  (%.1fx reduction)\n", s.Label, inc, fcgInc/inc)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func structure(w io.Writer, n int) {
	tbl := &stats.Table{Header: []string{"topology", "max degree", "tree height", "root fan-in", "depth histogram", "deadlock-free"}}
	for _, kind := range core.AllKinds {
		t, err := core.New(kind, n)
		if err != nil {
			tbl.AddRow(kind.String(), "-", "-", "-", "-", "n/a")
			continue
		}
		pt := core.BuildPathTree(t, 0)
		df := "yes"
		if core.CheckDeadlockFree(t) != nil {
			df = "NO"
		}
		tbl.AddRow(kind.String(), core.MaxDegree(t), pt.Height(), pt.RootFanIn(),
			fmt.Sprint(pt.NodesAtDepth()), df)
	}
	tbl.Write(w)
}

// summary renders a contention figure: per-topology mean/p50/p99/max rows,
// then each run's metrics snapshot when collected.
func summary(w io.Writer, rs []sweep.Result) {
	tbl := &stats.Table{Header: []string{"topology", "mean us/op", "p50", "p99", "max"}}
	for _, r := range rs {
		sm := stats.Summarize(r.Y)
		tbl.AddRow(r.Label, sm.Mean, sm.P50, sm.P99, sm.Max)
	}
	tbl.Write(w)
	for _, r := range rs {
		if r.Snapshot != nil {
			fmt.Fprintln(w)
			r.Snapshot.Write(w)
		}
	}
}

func advisor(w io.Writer) {
	tbl := &stats.Table{Header: []string{"nodes", "ppn", "budget MB/node", "workload", "advice", "max hops", "buffers MB"}}
	for _, c := range []struct {
		nodes, ppn int
		budgetMB   int64
		w          core.Workload
		wname      string
	}{
		{1024, 12, 0, core.Neighborly, "neighborly"},
		{1024, 12, 0, core.Dynamic, "dynamic"},
		{1024, 12, 256, core.Bulk, "bulk"},
		{4096, 12, 64, core.Dynamic, "dynamic"},
		// 729 nodes: no hypercube exists and 16 MB/node excludes the other
		// paper topologies, so the advisor's frontier search answers with a
		// HyperX flat shape instead.
		{729, 12, 16, core.Dynamic, "dynamic"},
		{4096, 12, 4, core.Dynamic, "dynamic"},
	} {
		a := core.Recommend(c.nodes, c.ppn, c.budgetMB<<20, c.w, 4, 16<<10)
		tbl.AddRow(c.nodes, c.ppn, c.budgetMB, c.wname, a.Spec.String(), a.MaxHops,
			float64(a.BufferBytesPerNode)/(1<<20))
	}
	tbl.Write(w)
}
