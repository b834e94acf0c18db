package figures

import (
	"fmt"

	"armcivt/internal/apps/ccsd"
	"armcivt/internal/apps/dft"
	"armcivt/internal/apps/lu"
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/stats"
)

// Fig8 reproduces Figure 8: NAS LU execution time versus process count, one
// series per topology. procCounts must be multiples of ppn; hypercube points
// are skipped when the node count is not a power of two (as in the paper's
// restriction). shards selects the kernel's parallel shard count (<= 1
// serial; results are bit-identical for every value).
func Fig8(procCounts []int, ppn, shards int, cfg lu.Config) ([]*stats.Series, error) {
	return appSeries(core.Kinds, procCounts, ppn, shards, "processes", "LU", true,
		func(rt *armci.Runtime) func(*armci.Rank) float64 {
			c := lu.Setup(rt, cfg)
			return func(r *armci.Rank) float64 { return lu.Run(r, c).Seconds }
		})
}

// Fig9a reproduces Figure 9(a): NWChem DFT (SiOSi3 proxy) execution time
// versus core count for all four topologies.
func Fig9a(coreCounts []int, ppn, shards int, cfg dft.Config) ([]*stats.Series, error) {
	return appSeries(core.Kinds, coreCounts, ppn, shards, "cores", "DFT", true,
		func(rt *armci.Runtime) func(*armci.Rank) float64 {
			st := dft.Setup(rt, cfg)
			return func(r *armci.Rank) float64 { return dft.Run(r, st).Seconds }
		})
}

// Fig9b reproduces Figure 9(b): NWChem CCSD(T) water-model proxy execution
// time versus core count, FCG and MFCG only (as in the paper).
func Fig9b(coreCounts []int, ppn, shards int, cfg ccsd.Config) ([]*stats.Series, error) {
	return appSeries([]core.Kind{core.FCG, core.MFCG}, coreCounts, ppn, shards, "cores", "CCSD", false,
		func(rt *armci.Runtime) func(*armci.Rank) float64 {
			st := ccsd.Setup(rt, cfg)
			return func(r *armci.Rank) float64 { return ccsd.Run(r, st).Seconds }
		})
}

// appSeries runs one application proxy per topology × count cell on a fresh
// runtime and records rank 0's execution time, one series per kind. setup
// prepares the proxy on the runtime and returns its per-rank body. unit
// ("processes" or "cores") and app name the cell in error texts; skip drops
// a cell whose topology cannot be built at the count (hypercube off powers
// of two) instead of failing.
func appSeries(kinds []core.Kind, counts []int, ppn, shards int, unit, app string, skip bool,
	setup func(*armci.Runtime) func(*armci.Rank) float64) ([]*stats.Series, error) {
	var out []*stats.Series
	for _, kind := range kinds {
		s := &stats.Series{Label: kind.String()}
		for _, n := range counts {
			if n%ppn != 0 {
				return nil, fmt.Errorf("figures: %d %s not divisible by ppn %d", n, unit, ppn)
			}
			rt, err := run{spec: core.Spec{Kind: kind}, nodes: n / ppn, ppn: ppn, shards: shards}.start("", nil)
			if err != nil {
				if skip {
					continue
				}
				return nil, err
			}
			body := setup(rt)
			var t0 float64
			err = rt.Run(func(r *armci.Rank) {
				if secs := body(r); r.Rank() == 0 {
					t0 = secs
				}
			})
			rt.Shutdown()
			if err != nil {
				return nil, fmt.Errorf("figures: %s %v x%d: %w", app, kind, n, err)
			}
			s.Add(float64(n), t0)
		}
		out = append(out, s)
	}
	return out, nil
}
