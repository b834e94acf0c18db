package figures

import (
	"fmt"

	"armcivt/internal/apps/ccsd"
	"armcivt/internal/apps/dft"
	"armcivt/internal/apps/lu"
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// App prepares an application proxy on a fresh runtime and returns its
// per-rank body, which reports the rank's execution time in seconds.
type App func(*armci.Runtime) func(*armci.Rank) float64

// LU is the NAS LU proxy of Figure 8.
func LU(cfg lu.Config) App {
	return func(rt *armci.Runtime) func(*armci.Rank) float64 {
		c := lu.Setup(rt, cfg)
		return func(r *armci.Rank) float64 { return lu.Run(r, c).Seconds }
	}
}

// DFT is the NWChem DFT (SiOSi3) proxy of Figure 9(a).
func DFT(cfg dft.Config) App {
	return func(rt *armci.Runtime) func(*armci.Rank) float64 {
		st := dft.Setup(rt, cfg)
		return func(r *armci.Rank) float64 { return dft.Run(r, st).Seconds }
	}
}

// CCSD is the NWChem CCSD(T) water-model proxy of Figure 9(b).
func CCSD(cfg ccsd.Config) App {
	return func(rt *armci.Runtime) func(*armci.Rank) float64 {
		st := ccsd.Setup(rt, cfg)
		return func(r *armci.Rank) float64 { return ccsd.Run(r, st).Seconds }
	}
}

// AppPoint computes a single cell of Figures 8-9: app on a fresh runtime of
// procs/ppn nodes of spec, returning rank 0's execution time in seconds.
// shards selects the kernel's parallel shard count (<= 1 serial; results
// are bit-identical for every value). metrics and trace, when non-nil,
// record the run as they do for the other harnesses, the trace under
// process id tracePID. It is the per-point unit the sweep runner executes,
// as Fig5PointSpec is for Figure 5.
func AppPoint(spec core.Spec, procs, ppn, shards int, app App, metrics *obs.Registry, trace *obs.Tracer, tracePID int) (float64, error) {
	if procs%ppn != 0 {
		return 0, fmt.Errorf("figures: %d processes not divisible by ppn %d", procs, ppn)
	}
	rt, err := run{spec: spec, nodes: procs / ppn, ppn: ppn, shards: shards,
		metrics: metrics, trace: trace, tracePID: tracePID}.start(fmt.Sprintf("app %v x%d", spec, procs), nil)
	if err != nil {
		return 0, err
	}
	body := app(rt)
	var t0 float64
	err = rt.Run(func(r *armci.Rank) {
		if secs := body(r); r.Rank() == 0 {
			t0 = secs
		}
	})
	rt.Shutdown()
	if err != nil {
		return 0, fmt.Errorf("figures: %v x%d: %w", spec, procs, err)
	}
	rt.FillMetrics()
	return t0, nil
}
