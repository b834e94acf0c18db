package sweep

import (
	"testing"

	"armcivt/internal/apps/ccsd"
	"armcivt/internal/apps/dft"
	"armcivt/internal/apps/lu"
	"armcivt/internal/core"
	"armcivt/internal/figures"
	"armcivt/internal/sim"
	"armcivt/internal/stats"
)

// TestAppExperimentsMatchAppPoint runs exp=lu, exp=dft and exp=ccsd at toy
// process counts and checks each merged table against the reference: a
// loop of figures.AppPoint calls on the paper's problem sizes, one series
// per topology, under the figure's title.
func TestAppExperimentsMatchAppPoint(t *testing.T) {
	for _, tc := range []struct {
		grid   string
		kinds  []core.Kind
		procs  []int
		ppn    int
		app    figures.App
		title  string
		xLabel string
	}{
		{"exp=lu;topos=fcg,mfcg;ppn=4;iters=1;procs=8,16", []core.Kind{core.FCG, core.MFCG}, []int{8, 16}, 4,
			figures.LU(lu.Config{NX: 2040, NY: 2040, Iters: 1, CellFlop: 400}),
			"Figure 8: NAS LU execution time (s) vs processes", "processes"},
		{"exp=dft;topos=fcg,mfcg;ppn=2;iters=1;procs=16,32", []core.Kind{core.FCG, core.MFCG}, []int{16, 32}, 2,
			figures.DFT(dft.Config{N: 192, BlockSize: 8, SCFIters: 1, TaskFlop: 100 * sim.Microsecond, HotBlocks: 4, CounterBatch: 4}),
			"Figure 9(a): NWChem DFT SiOSi3 proxy — total execution time (s) vs cores", "cores"},
		// topos left unset: the paper's Fig 9b compares FCG and MFCG only.
		{"exp=ccsd;ppn=2;procs=8,16", []core.Kind{core.FCG, core.MFCG}, []int{8, 16}, 2,
			figures.CCSD(ccsd.Config{N: 1024, BlockSize: 64, TasksPerRank: 2, TaskFlop: 3 * sim.Millisecond}),
			"Figure 9(b): NWChem CCSD(T) water proxy — total execution time (s) vs cores", "cores"},
	} {
		g, err := ParseGrid(tc.grid)
		if err != nil {
			t.Fatal(err)
		}
		results, _ := (&Runner{Workers: 2}).Run(mustExpand(t, *g))
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("%s: %s x%d: %s", tc.grid, r.Label, r.Point.Procs, r.Err)
			}
		}
		var want []*stats.Series
		for _, kind := range tc.kinds {
			s := &stats.Series{Label: kind.String()}
			for _, procs := range tc.procs {
				secs, err := figures.AppPoint(core.Spec{Kind: kind}, procs, tc.ppn, tc.app, nil, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				s.Add(float64(procs), secs)
			}
			want = append(want, s)
		}
		got := Fingerprint(Tables(results))
		if ref := Fingerprint([]*stats.Table{stats.SeriesTable(tc.title, tc.xLabel, want)}); got != ref {
			t.Errorf("%s: merged table\n%s\nwant the AppPoint reference\n%s", tc.grid, got, ref)
		}
	}
}
