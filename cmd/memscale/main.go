// Command memscale runs one large-N scaling point of the simulated runtime
// (docs/SCALING.md): N simulated nodes on a Hypercube carrying the Fig 5/6
// incast workload, reporting wall clock, hot-path allocation rate, and live
// footprint next to the analytic Fig 5 model for the same node:
//
//	memscale -scale 16384 -measure
//	memscale -scale 16384 -measure -max-live-mb 128   # nonzero exit on breach
//
// Figure 5 itself (master-process memory versus process count) is the
// `sweep -preset fig5` grid; cmd/vtreport prints it with the buffer-driven
// RSS increments.
//
// Usage:
//
//	memscale -scale N [-shards K] [-measure [-max-live-mb M]]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"armcivt/internal/figures"
)

// checkFlags rejects flag combinations that would silently do nothing: a
// missing -scale, a live-footprint ceiling with no footprint measured, and
// allocation counts taken on the sharded kernel, where they mean nothing.
func checkFlags(scale, shards int, measure bool, maxLiveMB float64) error {
	switch {
	case scale <= 0:
		return errors.New("memscale: -scale N is required (see sweep -preset fig5 for the Fig 5 table)")
	case maxLiveMB > 0 && !measure:
		return errors.New("memscale: -max-live-mb needs -measure (without it the live footprint is never recorded)")
	case measure && shards > 1:
		return errors.New("memscale: -measure needs -shards 1 (allocation counts are meaningful on the serial kernel only)")
	}
	return nil
}

// runScalePoint runs one docs/SCALING.md scaling point and reports it. With
// a -max-live-mb ceiling it turns into a CI gate: a live footprint above the
// ceiling exits nonzero.
func runScalePoint(nodes, shards int, measure bool, maxLiveMB float64) {
	t0 := time.Now()
	res, err := figures.Scale(figures.ScaleConfig{
		Nodes: nodes, Shards: shards, Measure: measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(t0)

	fmt.Printf("scale point: %d nodes, %d actives, %d ops (Hypercube, shards=%d)\n",
		res.Nodes, res.Actives, res.Ops, shards)
	fmt.Printf("  wall clock     %v\n", wall)
	fmt.Printf("  virtual time   %v\n", res.VirtualTime)
	fmt.Printf("  fingerprint    %016x\n", res.Fingerprint)
	fmt.Printf("  analytic RSS   %.1f MB (Fig 5 model, target node)\n", float64(res.MasterRSS)/(1<<20))
	if measure {
		fmt.Printf("  allocs/op      %.1f (%d mallocs over the measured phase)\n", res.AllocsPerOp, res.MallocsDelta)
		fmt.Printf("  live bytes     %.1f MB after end-of-phase GC\n", float64(res.LiveBytes)/(1<<20))
	}
	if maxLiveMB > 0 {
		if live := float64(res.LiveBytes) / (1 << 20); live > maxLiveMB {
			fmt.Fprintf(os.Stderr, "memscale: live footprint %.1f MB exceeds the %.1f MB ceiling\n", live, maxLiveMB)
			os.Exit(1)
		}
	}
}

func main() {
	scale := flag.Int("scale", 0, "run one large-N scaling point on this many simulated nodes (a power of two; required); see docs/SCALING.md")
	shards := flag.Int("shards", 1, "conservative-parallel kernel shards per run (1 = serial; results are bit-identical, see docs/PARALLELISM.md)")
	measure := flag.Bool("measure", false, "record hot-path allocs/op and live bytes (meaningful on the serial kernel only)")
	maxLiveMB := flag.Float64("max-live-mb", 0, "with -measure: exit nonzero if live bytes exceed this many MB (CI footprint smoke)")
	flag.Parse()

	if err := checkFlags(*scale, *shards, *measure, *maxLiveMB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runScalePoint(*scale, *shards, *measure, *maxLiveMB)
}
