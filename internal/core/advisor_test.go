package core

import (
	"strings"
	"testing"
)

func TestBufferBytes(t *testing.T) {
	// FCG over 64 nodes, 4 ppn, 4 bufs of 16 KB: 63*4*4*16K.
	b, err := BufferBytes(FCG, 64, 4, 4, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(63 * 4 * 4 * (16 << 10)); b != want {
		t.Errorf("BufferBytes = %d, want %d", b, want)
	}
	if _, err := BufferBytes(Hypercube, 63, 4, 4, 16<<10); err == nil {
		t.Error("hypercube on 63 nodes accepted")
	}
}

// TestNodeBufferBytesOnDragonfly: the one footprint function is per node.
// BufferBytes reads node 0 and Evaluate the maximum-degree node, which on
// Dragonfly at 128 nodes are different routers (7 edges against 22).
func TestNodeBufferBytesOnDragonfly(t *testing.T) {
	d := MustNew(Dragonfly, 128)
	hub := MaxDegreeNode(d)
	if d.Degree(0) != 7 || d.Degree(hub) != 22 || MaxDegree(d) != 22 {
		t.Fatalf("degree(0) = %d, degree(%d) = %d, MaxDegree = %d; want 7, 22, 22",
			d.Degree(0), hub, d.Degree(hub), MaxDegree(d))
	}
	const unit = 4 * 4 * (16 << 10)
	if b, _ := BufferBytes(Dragonfly, 128, 4, 4, 16<<10); b != NodeBufferBytes(d, 0, 4, 4, 16<<10) || b != 7*unit {
		t.Errorf("BufferBytes = %d, want node 0's %d", b, 7*unit)
	}
	a, err := Evaluate(Spec{Kind: Dragonfly}, 128, 4, 0, 4, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.BufferBytesPerNode != NodeBufferBytes(d, hub, 4, 4, 16<<10) || a.BufferBytesPerNode != 22*unit {
		t.Errorf("Evaluate footprint = %d, want the hub's %d", a.BufferBytesPerNode, 22*unit)
	}
}

func TestRecommendPrefersFCGForNeighborlyWhenItFits(t *testing.T) {
	a := Recommend(64, 4, 1<<30, Neighborly, 4, 16<<10)
	if a.Kind != FCG {
		t.Errorf("kind = %v, want FCG", a.Kind)
	}
	if a.BufferBytesPerNode <= 0 {
		t.Error("no footprint reported")
	}
}

func TestRecommendMFCGForDynamic(t *testing.T) {
	a := Recommend(1024, 12, 1<<40, Dynamic, 4, 16<<10)
	if a.Kind != MFCG {
		t.Errorf("kind = %v, want MFCG for hot-spot-prone workloads", a.Kind)
	}
	if !strings.Contains(a.Reason, "hot-spot") {
		t.Errorf("reason does not mention hot-spots: %q", a.Reason)
	}
}

func TestRecommendDescendsWithBudget(t *testing.T) {
	n, ppn := 4096, 12
	fcg, _ := BufferBytes(FCG, n, ppn, 4, 16<<10)
	mfcg, _ := BufferBytes(MFCG, n, ppn, 4, 16<<10)
	cfcg, _ := BufferBytes(CFCG, n, ppn, 4, 16<<10)
	hc, _ := BufferBytes(Hypercube, n, ppn, 4, 16<<10)
	if !(fcg > mfcg && mfcg > cfcg && cfcg > hc) {
		t.Fatalf("footprint ordering broken: %d %d %d %d", fcg, mfcg, cfcg, hc)
	}
	cases := []struct {
		budget int64
		want   Kind
	}{
		{fcg, FCG},
		{mfcg, MFCG},
		{cfcg, CFCG},
		{hc, Hypercube},
		{hc / 2, CFCG}, // nothing fits: smallest always-constructible
	}
	for _, c := range cases {
		a := Recommend(n, ppn, c.budget, Bulk, 4, 16<<10)
		if a.Kind != c.want {
			t.Errorf("budget %d: kind = %v, want %v", c.budget, a.Kind, c.want)
		}
	}
}

func TestRecommendUnlimitedBudget(t *testing.T) {
	a := Recommend(128, 4, 0, Bulk, 4, 16<<10)
	if a.Kind != FCG {
		t.Errorf("unlimited budget bulk = %v, want FCG", a.Kind)
	}
	a = Recommend(128, 4, 0, Dynamic, 4, 16<<10)
	if a.Kind != MFCG {
		t.Errorf("unlimited budget dynamic = %v, want MFCG", a.Kind)
	}
}

func TestRecommendNonPowerOfTwoSkipsHypercube(t *testing.T) {
	// 100 nodes: hypercube invalid; with a budget below CFCG the advisor
	// must still return a constructible topology.
	a := Recommend(100, 4, 1, Bulk, 4, 16<<10)
	if a.Kind != CFCG {
		t.Errorf("kind = %v, want CFCG fallback", a.Kind)
	}
}
