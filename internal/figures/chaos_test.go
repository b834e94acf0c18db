package figures

import (
	"strings"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// TestChaosInvariantsAllTopologies is the acceptance gate of the node-fault
// work: randomized crash/recover schedules at 64 nodes on all four virtual
// topologies, healing armed, every end-to-end invariant checked inside
// Chaos itself — and on top, zero failed operations: with membership and
// self-healing on, every survivor-to-survivor operation completes.
func TestChaosInvariantsAllTopologies(t *testing.T) {
	for _, kind := range core.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				res, err := Chaos(ChaosConfig{
					Kind: kind, Nodes: 64, PPN: 2, OpsPerRank: 10,
					Crashes: 3, Seed: seed, Heal: true,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// With healing on, the only permissible failures are true
				// partitions — pairs whose every admissible forwarder died.
				// (Seed 3's schedule severs six MFCG pairs, for instance.)
				if res.Failed != res.Partitioned {
					t.Errorf("seed %d: %d of %d survivor ops failed with healing on, only %d excused by partition",
						seed, res.Failed, res.Issued, res.Partitioned)
				}
				if res.Stats.Confirms == 0 {
					t.Errorf("seed %d: no neighbor ever confirmed a crash (victims %v)", seed, res.Victims)
				}
				if len(res.Victims) == 0 {
					t.Fatalf("seed %d: schedule produced no victims", seed)
				}
			}
		})
	}
}

// TestChaosHealOffLosesPaths pins the negative arm: the same schedules with
// healing disabled lose paths on every multi-hop topology — operations
// routed through a dead forwarder exhaust their retries and fail. FCG is
// exempt by construction: at diameter 1 there are no forwarders to lose, so
// a fully-connected graph rides out crashes of non-endpoints for free.
func TestChaosHealOffLosesPaths(t *testing.T) {
	for _, kind := range []core.Kind{core.MFCG, core.CFCG, core.Hypercube} {
		t.Run(kind.String(), func(t *testing.T) {
			total := 0
			for _, seed := range []int64{1, 2, 3} {
				res, err := Chaos(ChaosConfig{
					Kind: kind, Nodes: 64, PPN: 2, OpsPerRank: 10,
					Crashes: 3, Seed: seed, Heal: false,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				total += res.Failed
				if res.Stats.Confirms != 0 || res.Stats.HealReplays != 0 {
					t.Errorf("seed %d: membership ran while disarmed", seed)
				}
			}
			if total == 0 {
				t.Errorf("healing off lost no paths across three seeds on %v; the harness is not exercising forwarders", kind)
			}
		})
	}
}

// TestChaosMetricsSnapshot checks the harness feeds the observability layer:
// a healed run exports the membership gauges and heal counters.
func TestChaosMetricsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Chaos(ChaosConfig{
		Kind: core.MFCG, Nodes: 16, PPN: 1, OpsPerRank: 8,
		Crashes: 2, Seed: 2, Heal: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.Snapshot("chaos").Write(&sb)
	snap := sb.String()
	for _, want := range []string{"armci_membership_confirmed_total", "armci_membership_detect_latency_us"} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
	if res.Stats.Confirms == 0 {
		t.Error("no confirms in a 2-crash healed run")
	}
}

// TestChaosRebootBeforeConfirmation: on this Dragonfly schedule the victim
// reboots before its neighbors confirm its crash. Its reboot announcement
// must still rejoin it everywhere (its buffer pools are fresh), and sends
// parked toward it must go out on the fresh pool rather than be dropped
// with their ranks still waiting — so no survivor op fails and nothing
// wedges.
func TestChaosRebootBeforeConfirmation(t *testing.T) {
	res, err := Chaos(ChaosConfig{Kind: core.Dragonfly, Nodes: 64, PPN: 2, OpsPerRank: 20, Crashes: 1, Seed: 7, Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Partitioned {
		t.Errorf("%d of %d survivor ops failed, only %d excused by partition", res.Failed, res.Issued, res.Partitioned)
	}
}
