// Package figures regenerates every evaluation figure of the paper from the
// simulated runtime: memory scaling (Fig 5), vectored-put and fetch-&-add
// hot-spot contention (Figs 6-7), NAS LU (Fig 8), and the NWChem DFT/CCSD
// proxies (Fig 9). Each generator returns labeled series; the cmd/ binaries
// print them at paper scale and the package tests assert their shape at
// reduced scale.
package figures

import (
	"fmt"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/stats"
)

// Fig5 reproduces Figure 5: master-process memory consumption (MBytes)
// versus total process count, for all four topologies at the paper's
// constants (12 processes per node, 16 KB buffers, 4 buffers per process).
func Fig5(procCounts []int, ppn int) ([]*stats.Series, error) {
	var out []*stats.Series
	for _, kind := range core.Kinds {
		s := &stats.Series{Label: kind.String()}
		for _, procs := range procCounts {
			if procs%ppn != 0 {
				return nil, fmt.Errorf("figures: %d processes not divisible by ppn %d", procs, ppn)
			}
			nodes := procs / ppn
			topo, err := core.New(kind, nodes)
			if err != nil {
				continue // hypercube off powers of two, skipped as in the paper
			}
			cfg := armci.DefaultConfig(nodes, ppn)
			rss := armci.MasterRSSFor(cfg, topo, 0)
			s.Add(float64(procs), float64(rss)/(1<<20))
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5PointSpec computes a single cell of Figure 5: master-process RSS
// (MBytes) for one topology spec at one process count. It is the per-point
// unit the sweep runner executes; Fig5 is the serial cross-product of these
// cells over the paper's four kinds.
func Fig5PointSpec(procs, ppn int, spec core.Spec) (float64, error) {
	if procs%ppn != 0 {
		return 0, fmt.Errorf("figures: %d processes not divisible by ppn %d", procs, ppn)
	}
	nodes := procs / ppn
	topo, err := spec.Build(nodes)
	if err != nil {
		return 0, err
	}
	cfg := armci.DefaultConfig(nodes, ppn)
	return float64(armci.MasterRSSFor(cfg, topo, 0)) / (1 << 20), nil
}

// Fig5Increment returns the buffer-driven RSS increment (MBytes) over the
// base footprint, the quantity the paper's text discusses (812 MB for FCG at
// 12,288 processes).
func Fig5Increment(procs, ppn int, kind core.Kind) (float64, error) {
	nodes := procs / ppn
	topo, err := core.New(kind, nodes)
	if err != nil {
		return 0, err
	}
	cfg := armci.DefaultConfig(nodes, ppn)
	return float64(armci.MasterRSSFor(cfg, topo, 0)-cfg.BaseRSSBytes) / (1 << 20), nil
}
