package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// TestFigurePresetKeys pins every preset's expansion: the point count and a
// SHA-256 over the ordered "Index|Key()|Label()" lines, so a change to the
// order, a cache key or a series label of any preset fails here.
// fig5, fig6 and fig7 are also matched key for key against the grids the
// per-figure commands built from their default flags (memscale's Fig 5
// table, contention -op vput and -op fadd), so caches those commands
// filled still hit; fig8, fig9a and fig9b against their experiments at
// defaults, which are the paper's runs.
func TestFigurePresetKeys(t *testing.T) {
	paperTopos := []string{"FCG", "MFCG", "CFCG", "Hypercube"}
	off := []string{"off"}
	contention := func(op string) *sweep.Grid {
		return &sweep.Grid{
			Experiment: sweep.ExpContention, Op: op, Topos: paperTopos,
			Levels: []string{"none", "11", "20"}, Nodes: []int{256},
			PPN: 4, Iters: 20, SampleEvery: 8, Faults: []string{"none"},
			Aggs: off, Heals: off,
		}
	}
	legacy := map[string]*sweep.Grid{
		"fig5": {Experiment: sweep.ExpMemscale, PPN: 12, Topos: paperTopos,
			Procs: []int{768, 1536, 3072, 6144, 12288}},
		"fig6":  contention("vput"),
		"fig7":  contention("fadd"),
		"fig8":  {Experiment: sweep.ExpLU},
		"fig9a": {Experiment: sweep.ExpDFT},
		"fig9b": {Experiment: sweep.ExpCCSD},
	}
	pins := map[string]struct {
		points int
		sha    string
	}{
		"chaos":       {72, "07ae9c9276d45ea2b34d8934b4dd743a04fbc679ebe7f0f810383f47a705c8bf"},
		"chaos-ci":    {8, "8307cefe526afaa49ec8272b102255658cd2bc54179a3836b315ef91abf4a04c"},
		"fig5":        {20, "881fca13cf5721c03aa3cfc58374007f6445bf1872854ceb69735573fd69442e"},
		"fig6":        {12, "bcb230c3066c5d8ad138b54a19e86c1502e57fc8a3e66dd47b8e7ffa0e26abcd"},
		"fig6-agg-ci": {6, "7377f5be513a37ae898817ce7149dec66fcba9ef994d35423a7e41ceeeb59749"},
		"fig6-ci":     {9, "d1245d0b18c4be7c68d0dd010447157ad978b72aed78a9875fc5182dfd92fca0"},
		"fig6-family": {6, "d51455ee67766aa58fb89dfb8cc70a0ec2961101f4a671bdb2168cc1eab34d02"},
		"fig7":        {12, "9c18c71e3b77133349c6e6be22b5fc2c8d3abb8c8ea31a599708bf805b426014"},
		"fig8":        {16, "2f8f9db6c58d50f87a2e3240e776ec249845d0af1006b212b0107c49db27373f"},
		"fig9a":       {16, "60d1337b6fa7f904fb8d326329407178f89ee3295d96de595832c4e9e9407acd"},
		"fig9b":       {6, "241bfc082df7413aa7c28045fc96be0c661bda254288d81ca801ddb479886449"},
	}
	if len(pins) != len(presets) {
		t.Fatalf("%d presets, %d pinned", len(presets), len(pins))
	}
	for name, pin := range pins {
		g, err := sweep.ParseGrid(presets[name])
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		got, err := g.Expand()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		h := sha256.New()
		for _, p := range got {
			fmt.Fprintf(h, "%d|%s|%s\n", p.Index, p.Key(), p.Label())
		}
		if sum := hex.EncodeToString(h.Sum(nil)); len(got) != pin.points || sum != pin.sha {
			t.Errorf("preset %s: %d points, sha256 %s; want %d, %s", name, len(got), sum, pin.points, pin.sha)
		}
		lg, ok := legacy[name]
		if !ok {
			continue
		}
		want, err := lg.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: preset expands to %d points, legacy grid to %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Errorf("%s point %d: key %s, legacy key %s", name, i, got[i].Key(), want[i].Key())
			}
		}
	}
}
