package sweep

import "testing"

// TestLegacyCacheKeysPreserved pins the exact cache keys (and labels) of
// representative pre-spec points, captured before the topology-spec API
// landed. The topology-spec redesign must not invalidate existing sweep
// caches: bare kind names canonicalize to the same Topo strings, the Point
// JSON encoding is unchanged, and keySalt stays at v1. If this test fails,
// every user's on-disk cache silently re-runs — treat it as an API break,
// not a test to update.
func TestLegacyCacheKeysPreserved(t *testing.T) {
	for _, tc := range []struct {
		point Point
		key   string
		label string
	}{
		{
			Point{Experiment: ExpContention, Topo: "FCG", Nodes: 256, PPN: 4, Op: "vput",
				Level: "20", ContenderEvery: 5, Iters: 20, SampleEvery: 8, VecSegs: 32,
				MsgSize: 256, Seed: 1},
			"8100dd15970058649d2b9920f9e50b34be8e5f71148ca8445aa0de7fe7451077",
			"FCG",
		},
		{
			Point{Experiment: ExpContention, Topo: "MFCG", Nodes: 64, PPN: 2, Op: "vput",
				Level: "none", Iters: 5, SampleEvery: 8, StreamLimit: 8, VecSegs: 32,
				MsgSize: 256, Seed: 1},
			"fab9411ffab69d62713f6849330548cfeb97f6f93c33ebb5969a0521ac2a2afe",
			"MFCG",
		},
		{
			Point{Experiment: ExpMemscale, Topo: "Hypercube", PPN: 12, Procs: 12288},
			"87ade3393f6f8a39615bb309ef162a7847fdc64957e06e5f7dac9f122c48e97e",
			"Hypercube",
		},
		{
			Point{Experiment: ExpChaos, Topo: "CFCG", Nodes: 64, PPN: 2, Iters: 20,
				Crashes: 3, Heal: "on", Seed: 2},
			"48d8984ac2871de2fb9cd470e04a3a9543c7e13ad4900ce1b3c12ad958146c2c",
			"CFCG+heal/s2",
		},
		{
			Point{Experiment: ExpContention, Topo: "CFCG", Nodes: 64, PPN: 2, Op: "fadd",
				Level: "11", ContenderEvery: 9, Iters: 5, SampleEvery: 8, VecSegs: 32,
				MsgSize: 64, Window: 8, Agg: "on", Seed: 3, Rep: 1},
			"ac162197eb28e76c27e1632ff9410b37be4e107d9a249b93ea2fb145ae12f266",
			"CFCG+agg/s3/r1",
		},
	} {
		if got := tc.point.Key(); got != tc.key {
			t.Errorf("%s point: key changed\n got %s\nwant %s", tc.label, got, tc.key)
		}
		if got := tc.point.Label(); got != tc.label {
			t.Errorf("label changed: got %q, want %q", got, tc.label)
		}
	}
}

// TestLegacyTopoCanonicalization: the spec-aware topos= parser still
// canonicalizes bare kind names to the classic strings that appear in the
// keys above.
func TestLegacyTopoCanonicalization(t *testing.T) {
	g, err := ParseGrid("topos=fcg,MFCG,cfcg,hc")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"FCG", "MFCG", "CFCG", "Hypercube"}
	if len(g.Topos) != len(want) {
		t.Fatalf("Topos = %v", g.Topos)
	}
	for i, w := range want {
		if g.Topos[i] != w {
			t.Errorf("Topos[%d] = %q, want %q", i, g.Topos[i], w)
		}
	}
}
