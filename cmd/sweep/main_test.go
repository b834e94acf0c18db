package main

import (
	"testing"

	"armcivt/internal/sweep"
)

// TestPresetsExpand: every preset parses and expands to at least one point.
func TestPresetsExpand(t *testing.T) {
	for name, spec := range presets {
		g, err := sweep.ParseGrid(spec)
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		points, err := g.Expand()
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if len(points) == 0 {
			t.Errorf("preset %s expanded to no points", name)
		}
	}
}

// TestFigurePresetKeys pins the fig5, fig6 and fig7 presets to the cache
// keys of the grids the per-figure commands built from their default flags
// (memscale's Fig 5 table, contention -op vput and -op fadd), in order, so
// result caches those commands filled still hit.
func TestFigurePresetKeys(t *testing.T) {
	paperTopos := []string{"FCG", "MFCG", "CFCG", "Hypercube"}
	off := []string{"off"}
	contention := func(op string) sweep.Grid {
		return sweep.Grid{
			Experiment: sweep.ExpContention, Op: op, Topos: paperTopos,
			Levels: []string{"none", "11", "20"}, Nodes: []int{256},
			PPN: 4, Iters: 20, SampleEvery: 8, Faults: []string{"none"},
			Aggs: off, Adapts: off, Heals: off, Overloads: off,
		}
	}
	for _, tc := range []struct {
		preset string
		legacy sweep.Grid
		points int
	}{
		{"fig5", sweep.Grid{Experiment: sweep.ExpMemscale, PPN: 12, Topos: paperTopos,
			Procs: []int{768, 1536, 3072, 6144, 12288}}, 20},
		{"fig6", contention("vput"), 12},
		{"fig7", contention("fadd"), 12},
	} {
		g, err := sweep.ParseGrid(presets[tc.preset])
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.legacy.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.points || len(want) != tc.points {
			t.Fatalf("%s: preset expands to %d points, legacy grid to %d, want %d",
				tc.preset, len(got), len(want), tc.points)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Errorf("%s point %d: key %s, legacy key %s", tc.preset, i, got[i].Key(), want[i].Key())
			}
		}
	}
}
