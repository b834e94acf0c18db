package figures

import (
	"fmt"
	"testing"

	"armcivt/internal/core"
)

// The new topology families must honour the same sharded-determinism and
// chaos-invariant contracts as the paper's four, through the same unchanged
// runtime: sharding is physical-torus based and independent of the virtual
// topology, so shard counts {1, 2, 8} must stay bit-identical on HyperX and
// Dragonfly too.

var familySpecs = []string{
	"hyperx",
	"hyperx:4x4x2",
	"dragonfly",
	"dragonfly:g=8,a=4,h=2",
}

func TestFamilyContentionShardDeterminism(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			var base string
			for _, shards := range shardCounts {
				s, err := Contention(ContentionConfig{
					Topo: spec, Nodes: 32, PPN: 2, Iters: 5,
					ContenderEvery: 5, Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if s.Label != spec.String() {
					t.Fatalf("series label %q, want %q", s.Label, spec.String())
				}
				got := fmt.Sprintf("%v %v", s.X, s.Y)
				if shards == shardCounts[0] {
					base = got
				} else if got != base {
					t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
				}
			}
		})
	}
}

// allFamilySpecs covers all six topology families: the paper's four plus the
// two parameterized families of the spec grammar.
var allFamilySpecs = []string{
	"fcg",
	"mfcg",
	"cfcg",
	"hypercube",
	"hyperx:4x4x2",
	"dragonfly:g=8,a=4,h=2",
}

// chaosShardIdentical runs one chaos configuration at every shard count and
// fails unless each result equals the serial one field for field.
func chaosShardIdentical(t *testing.T, c ChaosConfig) {
	t.Helper()
	var base string
	for _, shards := range shardCounts {
		c.Shards = shards
		res, err := Chaos(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Issued == 0 || res.Completed == 0 {
			t.Fatalf("shards=%d: degenerate workload %+v", shards, res)
		}
		got := fmt.Sprintf("%+v", *res)
		if shards == shardCounts[0] {
			base = got
		} else if got != base {
			t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
		}
	}
}

// TestFamilyChaos runs the crash/recover harness — with its internal ledger,
// credit and detection-latency invariants — on both new families, with and
// without healing, across shard counts. Healing exercises ReplacementHop on
// Dragonfly's class-ordered admissible hops.
func TestFamilyChaos(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/heal=%v", specStr, heal), func(t *testing.T) {
				chaosShardIdentical(t, ChaosConfig{Topo: spec, Nodes: 32, PPN: 2, Heal: heal})
			})
		}
	}
}

// TestRecoverBitIdentityAcrossFamiliesAndShards stacks every crash/recover
// chaos feature at once (crashes, a storm, overload protection, healing) on
// all six families and requires each shard count to reproduce the serial
// result field for field.
func TestRecoverBitIdentityAcrossFamiliesAndShards(t *testing.T) {
	for _, specStr := range allFamilySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			chaosShardIdentical(t, ChaosConfig{
				Topo: spec, Nodes: 32, PPN: 2, OpsPerRank: 8,
				Crashes: 2, Storms: 1, Overload: true, Heal: true,
			})
		})
	}
}

// TestFamilyOverload runs the incast-storm harness once per family with
// protection on: the shed-ledger and fairness invariants must hold unchanged
// on the new topologies.
func TestFamilyOverload(t *testing.T) {
	for _, specStr := range []string{"hyperx:4x4x2", "dragonfly:g=8,a=4,h=2"} {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			res, err := Overload(OverloadConfig{
				Topo: spec, Nodes: 32, PPN: 2, OpsPerRank: 16,
				Protect: true, GoodputFloor: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Issued == 0 || res.Completed == 0 {
				t.Fatalf("degenerate overload run: %+v", res)
			}
		})
	}
}

// TestFamilyFig5PointSpec checks the memscale unit on shaped specs, and on a
// bare kind against the Fig 5 series for the same topology.
func TestFamilyFig5PointSpec(t *testing.T) {
	ss, err := Fig5([]int{128}, 4)
	if err != nil {
		t.Fatal(err)
	}
	classic := seriesByLabel(t, ss, "MFCG").YAt(128)
	viaSpec, err := Fig5PointSpec(128, 4, core.Spec{Kind: core.MFCG})
	if err != nil {
		t.Fatal(err)
	}
	if classic != viaSpec {
		t.Fatalf("Fig5 %v != Fig5PointSpec %v for the same topology", classic, viaSpec)
	}
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := Fig5PointSpec(128, 4, spec)
		if err != nil {
			t.Fatalf("%s: %v", specStr, err)
		}
		if mb <= 0 {
			t.Fatalf("%s: non-positive RSS %v", specStr, mb)
		}
	}
}
