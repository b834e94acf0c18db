package figures

import (
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
)

func faultedScale() ContentionConfig {
	return ContentionConfig{
		Kind: core.MFCG, Nodes: 16, PPN: 2, Iters: 3,
		SampleEvery: 4, ContenderEvery: 5, Op: OpVectoredPut,
	}
}

// TestFig6FaultedHotCHTCompletes is the regression for the headline failure
// mode: the hot-spot CHT (rank 0's node) stalls mid-experiment for longer
// than the request timeout. Retries plus duplicate suppression must carry
// the vectored-put workload to completion instead of wedging it.
func TestFig6FaultedHotCHTCompletes(t *testing.T) {
	c := faultedScale()
	c.Metrics = obs.NewRegistry()
	c.Faults = faults.MustParseSpec("cht:0@t=20us@for=6ms")
	s, err := Contention(c)
	if err != nil {
		t.Fatalf("faulted contention run did not complete: %v", err)
	}
	if len(s.Y) == 0 {
		t.Fatal("no measurements produced")
	}
	if v := c.Metrics.Counter("armci_retries_total").Value(); v == 0 {
		t.Error("stall longer than the request timeout produced no retries")
	}
	if v := c.Metrics.Counter("faults_injected_total", obs.L("kind", "cht_stall")).Value(); v != 1 {
		t.Errorf("faults_injected_total{kind=cht_stall} = %v, want 1", v)
	}
}

// TestBenignFaultScheduleIsBitIdentical pins the zero-cost guarantee: a
// fault schedule that never activates during the run must not perturb the
// measured series, even though it arms timeouts, regen checks and the
// watchdog.
func TestBenignFaultScheduleIsBitIdentical(t *testing.T) {
	clean, err := Contention(faultedScale())
	if err != nil {
		t.Fatal(err)
	}
	c := faultedScale()
	c.Faults = faults.MustParseSpec("cht:1@t=1h")
	armed, err := Contention(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Y) != len(armed.Y) {
		t.Fatalf("series lengths differ: %d vs %d", len(clean.Y), len(armed.Y))
	}
	for i := range clean.Y {
		if clean.X[i] != armed.X[i] || clean.Y[i] != armed.Y[i] {
			t.Errorf("point %d differs: clean (%v,%v) vs armed (%v,%v)",
				i, clean.X[i], clean.Y[i], armed.X[i], armed.Y[i])
		}
	}
}

// TestTopologyAttenuatesStorm: the virtual topology alone absorbs an
// ejection storm at the hot node. The Fig 6 vectored-put point (20 %
// contention, blocking, 64 nodes x 4) runs on every family without faults
// and again while node 0's ejection port runs at a quarter of its bandwidth
// in 50 us bursts for 2 ms. FCG, where every origin injects straight into
// the hot port, doubles its mean (1 313 -> 2 628 us/op when recorded). The
// sparse families funnel the same origins through a few forwarders, so the
// port sees few streams and the storm costs them at most 1 % (MFCG 229.4 ->
// 231.6 us/op). The storm must bite on FCG (at least 1.5x), and each sparse
// family's storm mean must stay at most 0.2x FCG's and within 1.10x of its
// own storm-free mean.
func TestTopologyAttenuatesStorm(t *testing.T) {
	storm := faults.MustParseSpec("storm:0@t=100us@for=2ms@bw=0.25@period=50us")
	mean := func(spec core.Spec, f *faults.Spec) float64 {
		t.Helper()
		s, err := Contention(ContentionConfig{
			Topo: spec, Nodes: 64, PPN: 4, Iters: 20, SampleEvery: 8,
			ContenderEvery: 5, Op: OpVectoredPut, Window: 1, Faults: f,
		})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		return sum / float64(len(s.Y))
	}
	fcgCalm, fcg := mean(core.Spec{Kind: core.FCG}, nil), mean(core.Spec{Kind: core.FCG}, storm)
	if fcg < 1.5*fcgCalm {
		t.Fatalf("FCG: the storm moved the mean only from %.1f to %.1f us/op; the storm did not bite", fcgCalm, fcg)
	}
	for _, name := range []string{"mfcg", "cfcg", "hypercube", "hyperx", "dragonfly"} {
		spec, err := core.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		calm, stormy := mean(spec, nil), mean(spec, storm)
		if stormy > 0.2*fcg {
			t.Errorf("%s under the storm: %.1f us/op, more than 0.2x FCG's %.1f", name, stormy, fcg)
		}
		if stormy > 1.10*calm {
			t.Errorf("%s: the storm raised the mean from %.1f to %.1f us/op (%.2fx, bound 1.10x)",
				name, calm, stormy, stormy/calm)
		}
	}
}
