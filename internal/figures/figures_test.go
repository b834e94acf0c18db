package figures

import (
	"math"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/stats"
)

func seriesByLabel(t *testing.T, ss []*stats.Series, label string) *stats.Series {
	t.Helper()
	for _, s := range ss {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("series %q not found", label)
	return nil
}

// cellSeries runs cell for every kind at every process count, one series
// per kind, as the sweep's merged tables hold them. A topology that cannot
// be built at a count (hypercube off powers of two) is skipped, as the
// sweep expansion skips it.
func cellSeries(t *testing.T, kinds []core.Kind, procs []int, ppn int,
	cell func(spec core.Spec, procs int) (float64, error)) []*stats.Series {
	t.Helper()
	var out []*stats.Series
	for _, kind := range kinds {
		s := &stats.Series{Label: kind.String()}
		spec := core.Spec{Kind: kind}
		for _, n := range procs {
			if _, err := spec.Build(n / ppn); err != nil {
				continue
			}
			y, err := cell(spec, n)
			if err != nil {
				t.Fatalf("%v x%d: %v", kind, n, err)
			}
			s.Add(float64(n), y)
		}
		out = append(out, s)
	}
	return out
}

// appFigure is one application figure through AppPoint.
func appFigure(t *testing.T, kinds []core.Kind, procs []int, ppn int, app App) []*stats.Series {
	return cellSeries(t, kinds, procs, ppn, func(spec core.Spec, n int) (float64, error) {
		return AppPoint(spec, n, ppn, app, nil, nil, 0)
	})
}

// fig5Increment is the buffer-driven RSS increment (MBytes) over the base
// footprint, the quantity the paper's text discusses (812 MB for FCG at
// 12,288 processes).
func fig5Increment(t *testing.T, procs, ppn int, kind core.Kind) float64 {
	t.Helper()
	mb, err := Fig5PointSpec(procs, ppn, core.Spec{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	return mb - float64(armci.DefaultConfig(procs/ppn, ppn).BaseRSSBytes)/(1<<20)
}

func TestFig5OrderingAndGrowth(t *testing.T) {
	procs := []int{768, 1536, 3072, 6144, 12288}
	ss := cellSeries(t, core.Kinds, procs, 12, func(spec core.Spec, n int) (float64, error) {
		return Fig5PointSpec(n, 12, spec)
	})
	fcg := seriesByLabel(t, ss, "FCG")
	mfcg := seriesByLabel(t, ss, "MFCG")
	cfcg := seriesByLabel(t, ss, "CFCG")
	hc := seriesByLabel(t, ss, "Hypercube")

	// Paper Fig 5: at every scale FCG uses the most memory, then MFCG,
	// CFCG, Hypercube.
	for _, p := range procs {
		x := float64(p)
		if !(fcg.YAt(x) > mfcg.YAt(x) && mfcg.YAt(x) > cfcg.YAt(x) && cfcg.YAt(x) > hc.YAt(x)) {
			t.Errorf("ordering violated at %d procs: FCG=%.1f MFCG=%.1f CFCG=%.1f HC=%.1f",
				p, fcg.YAt(x), mfcg.YAt(x), cfcg.YAt(x), hc.YAt(x))
		}
	}
	// FCG grows linearly (16x procs => ~16x increment); MFCG sublinearly.
	fcgGrowth := (fcg.YAt(12288) - fcg.YAt(768)) / fcg.YAt(768)
	mfcgGrowth := (mfcg.YAt(12288) - mfcg.YAt(768)) / mfcg.YAt(768)
	if fcgGrowth < 2*mfcgGrowth {
		t.Errorf("FCG growth %.2f not clearly steeper than MFCG %.2f", fcgGrowth, mfcgGrowth)
	}
}

func TestFig5IncrementMatchesPaperFCG(t *testing.T) {
	// Paper: FCG at 12,288 processes adds ~812 MB over the 612 MB base.
	inc := fig5Increment(t, 12288, 12, core.FCG)
	if inc < 600 || inc > 1100 {
		t.Errorf("FCG increment = %.0f MB, want same order as the paper's 812 MB", inc)
	}
	// And the virtual topologies cut it by an order of magnitude or more.
	for _, kind := range []core.Kind{core.MFCG, core.CFCG, core.Hypercube} {
		vinc := fig5Increment(t, 12288, 12, kind)
		if ratio := inc / vinc; ratio < 5 {
			t.Errorf("%v cuts increment only %.1fx (paper: 7.5-45x)", kind, ratio)
		}
	}
}

// smallScale shrinks the contention benchmark for test time: 64 nodes x 2
// PPN = 128 processes, sampling every 4th rank. The NIC stream limit is
// shrunk proportionally (the paper-scale run has ~200 contending nodes
// against 32 streams; here ~25 contending nodes against 8) so the
// overload ratio at the hot node matches the full-size experiment.
func smallScale() ContentionConfig {
	return ContentionConfig{Nodes: 64, PPN: 2, Iters: 5, SampleEvery: 4, StreamLimit: 8}
}

// contentionSeries runs the small-scale contention benchmark once per kind
// with the given operation and contention level.
func contentionSeries(t *testing.T, op ContentionOp, contenderEvery int, kinds ...core.Kind) []*stats.Series {
	t.Helper()
	var out []*stats.Series
	for _, kind := range kinds {
		c := smallScale()
		c.Kind, c.Op, c.ContenderEvery = kind, op, contenderEvery
		s, err := Contention(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestFig6NoContentionFCGFastest(t *testing.T) {
	ss := contentionSeries(t, OpVectoredPut, 0, core.FCG, core.MFCG, core.Hypercube)
	fcg := stats.Summarize(seriesByLabel(t, ss, "FCG").Y)
	mfcg := stats.Summarize(seriesByLabel(t, ss, "MFCG").Y)
	hc := stats.Summarize(seriesByLabel(t, ss, "Hypercube").Y)
	// Paper Fig 6(a)/(d): without contention the virtual topologies ADD
	// latency; the more forwarding, the more they add.
	if !(fcg.Mean < mfcg.Mean && mfcg.Mean < hc.Mean) {
		t.Errorf("no-contention ordering violated: FCG=%.1fus MFCG=%.1fus HC=%.1fus",
			fcg.Mean, mfcg.Mean, hc.Mean)
	}
}

func TestFig6ContentionDegradesFCGAndMFCGResists(t *testing.T) {
	// Paper Fig 6(b)(c): contention degrades FCG by orders of magnitude;
	// with 20% contention MFCG completes operations faster than FCG.
	base := contentionSeries(t, OpVectoredPut, 0, core.FCG)
	loaded := contentionSeries(t, OpVectoredPut, 5, core.FCG, core.MFCG)
	fcg0 := stats.Summarize(seriesByLabel(t, base, "FCG").Y)
	fcg20 := stats.Summarize(seriesByLabel(t, loaded, "FCG").Y)
	mfcg20 := stats.Summarize(seriesByLabel(t, loaded, "MFCG").Y)
	if fcg20.Mean < 10*fcg0.Mean {
		t.Errorf("FCG degraded only %.1fx under 20%% contention (want >= 10x): %.1f -> %.1f us",
			fcg20.Mean/fcg0.Mean, fcg0.Mean, fcg20.Mean)
	}
	if mfcg20.Mean >= fcg20.Mean {
		t.Errorf("MFCG (%.1fus) not faster than FCG (%.1fus) under 20%% contention",
			mfcg20.Mean, fcg20.Mean)
	}
}

func TestFig6LatencyGrowsWithRankDistance(t *testing.T) {
	// Paper: even in FCG, op time gradually increases with process rank
	// because physical distance to rank 0 grows.
	s := contentionSeries(t, OpVectoredPut, 0, core.FCG)[0]
	n := len(s.Y)
	if n < 8 {
		t.Fatal("too few samples")
	}
	first := stats.Summarize(s.Y[:n/4]).Mean
	last := stats.Summarize(s.Y[3*n/4:]).Mean
	if last <= first {
		t.Errorf("no distance trend: first quartile %.2fus, last %.2fus", first, last)
	}
}

func TestFig6MFCGShowsDistinctBands(t *testing.T) {
	// Paper: MFCG's per-rank times form distinct groups (1-hop direct vs
	// 2-hop forwarded).
	s := contentionSeries(t, OpVectoredPut, 0, core.MFCG)[0]
	topo := core.MustNew(core.MFCG, 64)
	var direct, forwarded []float64
	for i, x := range s.X {
		node := int(x) / 2 // PPN=2
		if topo.Connected(node, 0) {
			direct = append(direct, s.Y[i])
		} else {
			forwarded = append(forwarded, s.Y[i])
		}
	}
	if len(direct) == 0 || len(forwarded) == 0 {
		t.Fatal("sampling missed one band")
	}
	d := stats.Summarize(direct)
	f := stats.Summarize(forwarded)
	if f.Mean <= d.Mean {
		t.Errorf("forwarded band (%.2fus) not slower than direct band (%.2fus)", f.Mean, d.Mean)
	}
}

func TestFig7FetchAddContention(t *testing.T) {
	// Paper Fig 7: same qualitative story for atomics.
	base := contentionSeries(t, OpFetchAdd, 0, core.FCG, core.MFCG)
	loaded := contentionSeries(t, OpFetchAdd, 5, core.FCG, core.MFCG)
	fcg0 := stats.Summarize(seriesByLabel(t, base, "FCG").Y)
	mfcg0 := stats.Summarize(seriesByLabel(t, base, "MFCG").Y)
	fcg20 := stats.Summarize(seriesByLabel(t, loaded, "FCG").Y)
	mfcg20 := stats.Summarize(seriesByLabel(t, loaded, "MFCG").Y)
	if fcg0.Mean >= mfcg0.Mean {
		t.Errorf("uncontended: FCG %.2fus not faster than MFCG %.2fus", fcg0.Mean, mfcg0.Mean)
	}
	if fcg20.Mean < 5*fcg0.Mean {
		t.Errorf("FCG fetch-add degraded only %.1fx under contention", fcg20.Mean/fcg0.Mean)
	}
	if mfcg20.Mean >= fcg20.Mean {
		t.Errorf("MFCG (%.1fus) not faster than FCG (%.1fus) under 20%% contention",
			mfcg20.Mean, fcg20.Mean)
	}
}

func TestFig7CountersAreExact(t *testing.T) {
	// The fetch-&-add benchmark's semantics stay exact under contention:
	// run a tiny config and let armci's own tests cover atomicity; here we
	// just assert the series is fully populated and positive.
	s, err := Contention(ContentionConfig{
		Kind: core.CFCG, Nodes: 27, PPN: 1, Iters: 3, Op: OpFetchAdd, ContenderEvery: 5, SampleEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Y) == 0 {
		t.Fatal("empty series")
	}
	for i, y := range s.Y {
		if y <= 0 || math.IsNaN(y) {
			t.Errorf("sample %d = %v", i, y)
		}
	}
}

func TestFig8LUShape(t *testing.T) {
	// Paper Fig 8: time decreases with process count and topologies stay
	// comparable (within ~40% of FCG).
	import8 := []int{16, 64}
	ss := appFigure(t, core.Kinds, import8, 4, LU(luSmall()))
	fcg := seriesByLabel(t, ss, "FCG")
	if !(fcg.YAt(64) < fcg.YAt(16)) {
		t.Errorf("LU does not scale: %v -> %v", fcg.YAt(16), fcg.YAt(64))
	}
	for _, label := range []string{"MFCG", "CFCG", "Hypercube"} {
		s := seriesByLabel(t, ss, label)
		for _, x := range []float64{16, 64} {
			ratio := s.YAt(x) / fcg.YAt(x)
			if math.IsNaN(ratio) {
				continue
			}
			if ratio > 1.3 || ratio < 0.7 {
				t.Errorf("%s at %v procs is %.2fx FCG (want comparable)", label, x, ratio)
			}
		}
	}
}

func TestFig9aDFTShape(t *testing.T) {
	// Paper Fig 9(a): with hot-spot-prone DFT, MFCG beats FCG and
	// Hypercube is the worst at scale.
	ss := appFigure(t, core.Kinds, []int{128}, 2, DFT(dftSmall()))
	fcg := seriesByLabel(t, ss, "FCG").YAt(128)
	mfcg := seriesByLabel(t, ss, "MFCG").YAt(128)
	hc := seriesByLabel(t, ss, "Hypercube").YAt(128)
	if mfcg >= fcg {
		t.Errorf("MFCG (%.3fs) not faster than FCG (%.3fs) on hot-spot DFT", mfcg, fcg)
	}
	if hc <= fcg {
		t.Errorf("Hypercube (%.3fs) not slower than FCG (%.3fs) on DFT", hc, fcg)
	}
}

func TestFig9bCCSDShape(t *testing.T) {
	// Paper Fig 9(b): without hot-spots, FCG is comparable to or better
	// than MFCG (within 25%).
	ss := appFigure(t, []core.Kind{core.FCG, core.MFCG}, []int{32}, 2, CCSD(ccsdSmall()))
	fcg := seriesByLabel(t, ss, "FCG").YAt(32)
	mfcg := seriesByLabel(t, ss, "MFCG").YAt(32)
	if fcg > mfcg*1.25 {
		t.Errorf("FCG (%.3fs) much slower than MFCG (%.3fs) on CCSD; expected comparable-or-better", fcg, mfcg)
	}
}
