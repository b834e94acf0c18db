// Command naslu regenerates Figure 8 of the paper: NAS LU execution time on
// a varying number of processes under all four virtual topologies.
//
// Usage:
//
//	naslu [-procs 192,384,768,1536] [-ppn 12] [-nx 2040] [-iters 12] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"armcivt/internal/apps/lu"
	"armcivt/internal/figures"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

func main() {
	procsFlag := flag.String("procs", "192,384,768,1536", "comma-separated process counts")
	ppn := flag.Int("ppn", 12, "processes per node (12 gives power-of-two node counts for Hypercube)")
	nx := flag.Int("nx", 2040, "global grid edge")
	iters := flag.Int("iters", 12, "SSOR iterations")
	cellFlop := flag.Int64("cellflop", 400, "per-cell compute cost (ns)")
	csv := flag.Bool("csv", false, "emit CSV")
	shards := flag.Int("shards", 1, "conservative-parallel kernel shards per run (1 = serial; results are bit-identical, see docs/PARALLELISM.md)")
	flag.Parse()

	var procs []int
	for _, p := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad -procs:", err)
			os.Exit(2)
		}
		procs = append(procs, v)
	}
	cfg := lu.Config{NX: *nx, NY: *nx, Iters: *iters, CellFlop: sim.Time(*cellFlop)}
	series, err := figures.Fig8(procs, *ppn, *shards, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tbl := stats.SeriesTable("Figure 8: NAS LU execution time (s) vs processes", "processes", series)
	if *csv {
		tbl.WriteCSV(os.Stdout)
	} else {
		tbl.Write(os.Stdout)
	}
}
