package figures

import (
	"fmt"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
)

// The new topology families must honour the same determinism and
// chaos-invariant contracts as the paper's four, through the same unchanged
// runtime.

var familySpecs = []string{
	"hyperx",
	"hyperx:4x4x2",
	"dragonfly",
	"dragonfly:g=8,a=4,h=2",
}

func TestFamilyContentionDeterminismAcrossWorkers(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			sameAcrossWorkers(t, func() (string, error) {
				s, err := Contention(ContentionConfig{Topo: spec, Nodes: 32, PPN: 2, Iters: 5, ContenderEvery: 5})
				if err == nil && s.Label != spec.String() {
					err = fmt.Errorf("series label %q, want %q", s.Label, spec.String())
				}
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v %v", s.X, s.Y), nil
			})
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

// TestFamilyChaos runs the crash/recover harness — with its internal ledger,
// credit and detection-latency invariants — on both new families, with and
// without healing, alone and on concurrent workers. Healing exercises
// ReplacementHop on Dragonfly's class-ordered admissible hops.
func TestFamilyChaos(t *testing.T) {
	for _, specStr := range familySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/heal=%v", specStr, heal), func(t *testing.T) {
				sameAcrossWorkers(t, chaosText(ChaosConfig{Topo: spec, Nodes: 32, PPN: 2, Heal: heal}))
			})
		}
	}
}

// TestRecoverBitIdentityAcrossFamiliesAndWorkers stacks every crash/recover
// chaos feature at once (crashes, a storm, healing) on all six families and
// requires concurrent workers to reproduce the lone run field for field.
func TestRecoverBitIdentityAcrossFamiliesAndWorkers(t *testing.T) {
	for _, specStr := range allFamilySpecs {
		spec, err := core.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(specStr, func(t *testing.T) {
			sameAcrossWorkers(t, chaosText(ChaosConfig{
				Topo: spec, Nodes: 32, PPN: 2, OpsPerRank: 8,
				Crashes: 2, Storms: 1, Heal: true,
			}))
		})
	}
}

// TestFamilyFig5PointSpec checks the memscale unit on shaped specs, and on a
// bare kind against the memory model evaluated on the classic topology.
func TestFamilyFig5PointSpec(t *testing.T) {
	cfg := armci.DefaultConfig(32, 4)
	classic := float64(armci.MasterRSSFor(cfg, core.MustNew(core.MFCG, 32), 0)) / (1 << 20)
	viaSpec, err := Fig5PointSpec(128, 4, core.Spec{Kind: core.MFCG})
	if err != nil {
		t.Fatal(err)
	}
	if classic != viaSpec {
		t.Fatalf("memory model %v != Fig5PointSpec %v for the same topology", classic, viaSpec)
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
