// Command vtreport regenerates the paper's complete evaluation in one run
// and writes a markdown report: Figure 5 (memory), Figures 6-7 (contention),
// Figure 8 (NAS LU) and Figures 9a/9b (NWChem proxies), plus the structural
// properties of Figures 1-4.
//
// The default -quick mode runs reduced-scale experiments (minutes); -full
// uses the paper-scale parameters documented in EXPERIMENTS.md.
//
// The contention grid (Figs 6-7: 2 ops x 3 levels x up to 4 topologies)
// executes through the internal/sweep worker pool: -j N parallelizes it
// across N workers. Every run is an independent deterministic simulation,
// so the report is byte-identical at any -j.
//
// With -metrics, each contention run (Figs 6-7) appends its observability
// snapshot to the report; with -trace FILE all contention runs are written
// into one Chrome-trace JSON file, one trace process per run (see
// docs/OBSERVABILITY.md; forces -j 1). The report runs the paper's
// fault-free configurations; fault schedules, healing and overload
// protection are the faults=, heal= and overload= keys of a cmd/sweep grid.
//
// Usage:
//
//	vtreport [-quick|-full] [-j N] [-metrics] [-trace FILE] [-shards K] > report.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"armcivt/internal/apps/ccsd"
	"armcivt/internal/apps/dft"
	"armcivt/internal/apps/lu"
	"armcivt/internal/core"
	"armcivt/internal/figures"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
	"armcivt/internal/sweep"
)

type scale struct {
	memProcs   []int
	memPPN     int
	contention figures.ContentionConfig
	luProcs    []int
	luPPN      int
	luCfg      lu.Config
	dftCores   []int
	dftPPN     int
	dftCfg     dft.Config
	ccsdCores  []int
	ccsdPPN    int
	ccsdCfg    ccsd.Config
}

func quickScale() scale {
	return scale{
		memProcs:   []int{768, 1536, 3072, 6144, 12288},
		memPPN:     12,
		contention: figures.ContentionConfig{Nodes: 64, PPN: 2, Iters: 5, SampleEvery: 4, StreamLimit: 8},
		luProcs:    []int{48, 192},
		luPPN:      12,
		luCfg:      lu.Config{NX: 480, NY: 480, Iters: 6, CellFlop: 400},
		dftCores:   []int{512, 1024},
		dftPPN:     4,
		dftCfg:     dft.Config{N: 192, BlockSize: 8, SCFIters: 2, TaskFlop: 100 * sim.Microsecond, HotBlocks: 4, CounterBatch: 4},
		ccsdCores:  []int{256, 512},
		ccsdPPN:    4,
		ccsdCfg:    ccsd.Config{N: 512, BlockSize: 64, TasksPerRank: 2, TaskFlop: 2 * sim.Millisecond},
	}
}

func fullScale() scale {
	s := quickScale()
	s.contention = figures.ContentionConfig{Nodes: 256, PPN: 4, Iters: 20, SampleEvery: 8}
	s.luProcs = []int{192, 384, 768, 1536}
	s.luCfg = lu.Config{NX: 2040, NY: 2040, Iters: 12, CellFlop: 400}
	s.dftCores = []int{1536, 3072, 6144}
	s.dftPPN = 12
	s.dftCfg.SCFIters = 3
	s.ccsdCores = []int{768, 1536, 3072}
	s.ccsdPPN = 12
	s.ccsdCfg.N = 1024
	s.ccsdCfg.TaskFlop = 3 * sim.Millisecond
	return s
}

// contSection is one contention block of the report: a heading plus the
// half-open [start, end) range of the sweep's point list it renders.
type contSection struct {
	title      string
	start, end int
}

func main() {
	full := flag.Bool("full", false, "paper-scale parameters (slow)")
	jobs := flag.Int("j", 1, "worker-pool size for the contention grid (Figs 6-7)")
	metrics := flag.Bool("metrics", false, "append observability snapshots to the contention sections")
	traceFile := flag.String("trace", "", "write contention runs as one Chrome-trace JSON file (forces -j 1)")
	shards := flag.Int("shards", 1, "conservative-parallel kernel shards per run (1 = serial; results are bit-identical, see docs/PARALLELISM.md)")
	flag.Parse()
	s := quickScale()
	mode := "quick"
	if *full {
		s = fullScale()
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

	section(w, "Figure 5: master-process memory vs processes")
	ss, err := figures.Fig5(s.memProcs, s.memPPN)
	check(err)
	stats.SeriesTable("memory (MBytes)", "processes", ss).Write(w)
	fig5Increments(w, s.memProcs[len(s.memProcs)-1], s.memPPN)

	// Build the whole contention grid (3 levels x {Fig 6 vput, Fig 7 fadd} x
	// topologies) as one sweep point list, so -j parallelizes across every
	// section at once; each section then renders its own slice of the
	// results. Point order matches the report's section order, so trace pids
	// and output bytes are identical to the old per-run loop.
	var points []sweep.Point
	var sections []contSection
	for _, lv := range []struct {
		key   string
		every int
	}{{"none", 0}, {"11", 9}, {"20", 5}} {
		kinds := core.Kinds
		if lv.every > 0 {
			kinds = []core.Kind{core.FCG, core.MFCG, core.CFCG} // paper drops hypercube under load
		}
		name := sweep.LevelName(lv.key)
		for _, fig := range []struct {
			heading string
			op      string
		}{{"Figure 6 (vectored put), " + name, "vput"}, {"Figure 7 (fetch-&-add), " + name, "fadd"}} {
			sec := contSection{title: fig.heading, start: len(points)}
			for _, kind := range kinds {
				if _, err := core.New(kind, s.contention.Nodes); err != nil {
					continue // topology inapplicable at this node count
				}
				points = append(points, sweep.Point{
					Experiment:     sweep.ExpContention,
					Topo:           kind.String(),
					Nodes:          s.contention.Nodes,
					PPN:            s.contention.PPN,
					Op:             fig.op,
					Level:          lv.key,
					ContenderEvery: lv.every,
					Iters:          s.contention.Iters,
					SampleEvery:    s.contention.SampleEvery,
					StreamLimit:    s.contention.StreamLimit,
					Metrics:        *metrics,
				})
			}
			sec.end = len(points)
			sections = append(sections, sec)
		}
	}
	sweep.Reindex(points)
	runner := &sweep.Runner{Workers: *jobs, ExecOptions: sweep.ExecOptions{Trace: tracer, Shards: *shards}}
	results, _ := runner.Run(points)

	for _, sec := range sections {
		section(w, sec.title)
		var series []*stats.Series
		for _, r := range results[sec.start:sec.end] {
			if r.Err != "" {
				fmt.Fprintln(os.Stderr, r.Err)
				os.Exit(1)
			}
			series = append(series, r.Series())
		}
		summary(w, series)
		for _, r := range results[sec.start:sec.end] {
			if r.Snapshot != nil {
				fmt.Fprintln(w)
				r.Snapshot.Write(w)
			}
		}
	}

	section(w, "Figure 8: NAS LU execution time")
	ls, err := figures.Fig8(s.luProcs, s.luPPN, *shards, s.luCfg)
	check(err)
	stats.SeriesTable("time (s)", "processes", ls).Write(w)

	section(w, "Figure 9(a): NWChem DFT SiOSi3 proxy")
	ds, err := figures.Fig9a(s.dftCores, s.dftPPN, *shards, s.dftCfg)
	check(err)
	stats.SeriesTable("time (s)", "cores", ds).Write(w)

	section(w, "Figure 9(b): NWChem CCSD(T) water proxy")
	cs2, err := figures.Fig9b(s.ccsdCores, s.ccsdPPN, *shards, s.ccsdCfg)
	check(err)
	stats.SeriesTable("time (s)", "cores", cs2).Write(w)

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

// fig5Increments prints the buffer-driven RSS increment over the base
// footprint at the largest process count, and each sparse topology's
// reduction against FCG: the paper's headline Fig 5 numbers.
func fig5Increments(w io.Writer, procs, ppn int) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Buffer-driven RSS increment over the base footprint (paper: FCG +812 MB at 12,288 procs,")
	fmt.Fprintln(w, "cut 7.5x / 16.6x / 45x by MFCG / CFCG / Hypercube):")
	fcgInc, err := figures.Fig5Increment(procs, ppn, core.FCG)
	check(err)
	fmt.Fprintf(w, "  FCG        +%7.1f MB\n", fcgInc)
	for _, kind := range []core.Kind{core.MFCG, core.CFCG, core.Hypercube} {
		inc, err := figures.Fig5Increment(procs, ppn, kind)
		if err != nil {
			fmt.Fprintf(w, "  %-10s n/a (%v)\n", kind, err)
			continue
		}
		fmt.Fprintf(w, "  %-10s +%7.1f MB  (%.1fx reduction)\n", kind, inc, fcgInc/inc)
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

func summary(w io.Writer, series []*stats.Series) {
	tbl := &stats.Table{Header: []string{"topology", "mean us/op", "p50", "p99", "max"}}
	for _, s := range series {
		sm := stats.Summarize(s.Y)
		tbl.AddRow(s.Label, sm.Mean, sm.P50, sm.P99, sm.Max)
	}
	tbl.Write(w)
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
