// Package figures holds the per-cell functions behind every evaluation
// figure of the paper, run on the simulated runtime: memory scaling
// (Fig5PointSpec, Fig 5), vectored-put and fetch-&-add hot-spot contention
// (Contention, Figs 6-7), and the application proxies (AppPoint with LU,
// DFT or CCSD, Figs 8-9), plus the Chaos and Scale harnesses.
// Each function runs one cell; the internal/sweep experiments table turns
// grids of cells into the paper's figures, and the package tests assert
// their shape at reduced scale.
package figures

import (
	"fmt"

	"armcivt/internal/armci"
	"armcivt/internal/core"
)

// Fig5PointSpec computes a single cell of Figure 5: master-process RSS
// (MBytes) for one topology spec at one process count, at the paper's
// constants (16 KB buffers, 4 buffers per process). It is the per-point
// unit the sweep runner executes.
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
