package figures

import (
	"errors"
	"fmt"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// TestOverloadInvariants runs the protected incast-storm harness on every
// topology at 256 nodes: the in-run invariants (per-origin accounting, ledger
// exactness, shed-ledger reconciliation, credit conservation) plus the
// configured goodput floor and tenant-fairness bound must all hold. The
// harness returns a non-nil error on any violation.
func TestOverloadInvariants(t *testing.T) {
	for _, kind := range core.Kinds {
		t.Run(fmt.Sprintf("%v", kind), func(t *testing.T) {
			res, err := Overload(OverloadConfig{
				Kind: kind, Nodes: 256, PPN: 2, OpsPerRank: 16,
				Protect: true, GoodputFloor: 0.75, FairnessBound: 1.5,
			})
			if err != nil {
				t.Fatalf("protected overload run on %v: %v", kind, err)
			}
			if res.Issued == 0 || res.Completed == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
			if res.Issued != res.Completed+res.Shed {
				t.Fatalf("accounting: issued %d != completed %d + shed %d",
					res.Issued, res.Completed, res.Shed)
			}
		})
	}
}

// TestOverloadProtectionWins is the collapse comparison of docs/OVERLOAD.md:
// the protected arm of the identical incast-storm workload must beat the
// unprotected arm on goodput by at least 2x and on p99 window latency
// outright.
func TestOverloadProtectionWins(t *testing.T) {
	run := func(protect bool) *OverloadResult {
		t.Helper()
		res, err := Overload(OverloadConfig{Kind: core.MFCG, Protect: protect})
		if err != nil {
			t.Fatalf("protect=%v: %v", protect, err)
		}
		return res
	}
	off, on := run(false), run(true)
	if ratio := on.Goodput() / off.Goodput(); ratio < 2.0 {
		t.Fatalf("protected goodput %.1f/ms vs unprotected %.1f/ms: ratio %.2f < 2.0",
			on.Goodput(), off.Goodput(), ratio)
	}
	if on.WindowP99 >= off.WindowP99 {
		t.Fatalf("protected p99 %.1fus not better than unprotected %.1fus",
			on.WindowP99, off.WindowP99)
	}
}

// TestOverloadShardDeterminism: the overload harness — AIMD pacers, slams,
// admission, shedding and all — must produce bit-identical results at every
// shard count, in both arms.
func TestOverloadShardDeterminism(t *testing.T) {
	for _, protect := range []bool{false, true} {
		t.Run(fmt.Sprintf("protect=%v", protect), func(t *testing.T) {
			var base string
			for _, shards := range shardCounts {
				res, err := Overload(OverloadConfig{
					Kind: core.MFCG, Protect: protect, Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				got := fmt.Sprintf("%+v", *res)
				if shards == shardCounts[0] {
					base = got
				} else if got != base {
					t.Fatalf("shards=%d diverges from serial:\n%s\nvs\n%s", shards, got, base)
				}
			}
		})
	}
}

// TestOverloadCollapseDetector arms the watchdog's goodput-collapse detector
// on both arms of a storm-heavy run. The unprotected arm's completions fall
// below the floor for the patience window and the run must abort with a
// Collapse report; the protected arm under the identical floor must finish —
// either by keeping completions flowing or because its deliberate shedding
// resets the collapse streak.
func TestOverloadCollapseDetector(t *testing.T) {
	cfg := OverloadConfig{Kind: core.MFCG, Storms: 6, CollapseFloor: 600}

	cfg.Protect = false
	_, err := Overload(cfg)
	var werr *sim.WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("unprotected storm run: want *sim.WatchdogError, got %v", err)
	}
	if !werr.Report.Collapse {
		t.Fatalf("unprotected trip is not a goodput collapse: %v", werr)
	}

	cfg.Protect = true
	if res, err := Overload(cfg); err != nil {
		t.Fatalf("protected run tripped the same collapse floor: %v", err)
	} else if res.Completed == 0 {
		t.Fatalf("protected run completed nothing: %+v", res)
	}
}
