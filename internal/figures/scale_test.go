package figures

import (
	"runtime"
	"testing"
	"time"

	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// The completion fingerprints of the 1k- and 16k-node scaling points. They
// hash every active's completion instant, so any change to the protocol's
// virtual timing moves them; a change that moves them on purpose updates
// them here.
const (
	scaleFingerprint1k  uint64 = 0xd4e57345ae0f060e
	scaleFingerprint16k uint64 = 0x1d409b573a5bf872
	scaleFingerprint64k uint64 = 0x09e94f1b73a7b1b1
)

// TestScaleDefaultsAndShape: the harness fills its documented defaults, runs
// a small point end to end, and produces the fields TestScaleFootprint
// reports.
func TestScaleDefaultsAndShape(t *testing.T) {
	res, err := Scale(ScaleConfig{Nodes: 256, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 256 || res.Actives != 64 {
		t.Errorf("nodes/actives = %d/%d, want 256/64", res.Nodes, res.Actives)
	}
	if want := 64 * 16; res.Ops != want {
		t.Errorf("ops = %d, want %d", res.Ops, want)
	}
	if res.VirtualTime <= 0 {
		t.Error("virtual time did not advance")
	}
	if res.MallocsDelta == 0 || res.AllocsPerOp <= 0 || res.LiveBytes == 0 {
		t.Errorf("measurement fields empty: %+v", res)
	}
	if res.Fingerprint == 0 {
		t.Error("fingerprint is zero")
	}
	if res.MasterRSS <= 0 {
		t.Error("analytic MasterRSS not filled")
	}
}

// TestScaleRejectsNonPowerOfTwo: the harness runs on a Hypercube, so a
// non-power-of-two node count must fail loudly, not round silently.
func TestScaleRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := Scale(ScaleConfig{Nodes: 1000}); err == nil {
		t.Error("nodes=1000 did not error")
	}
}

// TestScaleRejectsTooFewNodes: a single node leaves no active rank, so the
// measured allocation rate would be 0/0; the harness must refuse the point
// rather than report NaN.
func TestScaleRejectsTooFewNodes(t *testing.T) {
	if _, err := Scale(ScaleConfig{Nodes: 1, Measure: true}); err == nil {
		t.Error("nodes=1 did not error")
	}
}

// TestScaleAllocsCeiling enforces the allocs/op contract of docs/SCALING.md:
// one measured 1k-node point (tens of milliseconds) must stay under a
// ceiling set at roughly 2x the measured rate, so a hot-path regression
// fails here. It measured 2.97 allocs/op (go1.24, linux/amd64) with pooled
// handles, per-lane message lists and chunk-carved pools. It also pins the
// point's completion fingerprint, so it guards virtual timing under -short
// too.
func TestScaleAllocsCeiling(t *testing.T) {
	const ceiling = 6.0
	res, err := Scale(ScaleConfig{Nodes: 1024, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocsPerOp > ceiling {
		t.Errorf("hot-path allocation rate %.1f allocs/op exceeds the %.0f ceiling (docs/SCALING.md)",
			res.AllocsPerOp, ceiling)
	}
	if res.Fingerprint != scaleFingerprint1k {
		t.Errorf("1k fingerprint %016x, want %016x", res.Fingerprint, scaleFingerprint1k)
	}
}

// TestScaleDeterminism16k is the large-N determinism smoke from
// docs/SCALING.md: the 16k-node Fig 6 point must produce its pinned
// completion-time fingerprint — the flattened arenas, free lists, and lazy
// slabs must be invisible to virtual time. Skipped under -short.
func TestScaleDeterminism16k(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16k-node run")
	}
	res, err := Scale(ScaleConfig{Nodes: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != scaleFingerprint16k {
		t.Errorf("fingerprint %016x, want %016x", res.Fingerprint, scaleFingerprint16k)
	}
}

// TestScaleFootprint is the large-N live-footprint gate of docs/SCALING.md:
// one measured 16k-node and one measured 64k-node point must stay under
// live-byte ceilings of 48 MB and 172 MB, about 2x what they measure
// (20.9 MB and 77.1 MB, go1.24, linux/amd64, 2 cores), and each must
// produce its pinned completion fingerprint. It logs each point's nodes,
// wall time, live footprint and allocation rate; CI runs it with -v and
// copies the log into the job summary.
func TestScaleFootprint(t *testing.T) {
	for _, tc := range []struct {
		nodes     int
		ceilingMB float64
		want      uint64
	}{{16384, 48, scaleFingerprint16k}, {65536, 172, scaleFingerprint64k}} {
		t0 := time.Now()
		res, err := Scale(ScaleConfig{Nodes: tc.nodes, Measure: true})
		if err != nil {
			t.Fatal(err)
		}
		live := float64(res.LiveBytes) / (1 << 20)
		t.Logf("%d nodes: wall %v, live %.1f MB, %.2f allocs/op, virtual %v, fingerprint %016x, analytic RSS %.1f MB",
			res.Nodes, time.Since(t0).Round(time.Millisecond), live, res.AllocsPerOp, res.VirtualTime,
			res.Fingerprint, float64(res.MasterRSS)/(1<<20))
		if live > tc.ceilingMB {
			t.Errorf("%d nodes: live footprint %.1f MB exceeds the %.0f MB ceiling", tc.nodes, live, tc.ceilingMB)
		}
		if res.Fingerprint != tc.want {
			t.Errorf("%d nodes: fingerprint %016x, want %016x", tc.nodes, res.Fingerprint, tc.want)
		}
	}
}

// TestChaosAllocsCeiling guards the armed request path's allocation rate:
// one healed chaos point (MFCG 64x2, one crash, timeouts, retries, heartbeat
// probes) must stay under a ceiling of the measured rate plus 25 %. The rate
// counts every malloc of the whole call, set-up included, per issued
// operation. It measured 1.34 allocs/op (go1.24, linux/amd64) with request
// records, parked sends and handles pooled on the armed path, their pools
// carved in chunks, egress FIFOs and CHT inboxes that reuse their arrays,
// and messages, timers and membership views allocation-free in steady
// state.
func TestChaosAllocsCeiling(t *testing.T) {
	const measured = 1.34
	const ceiling = measured * 1.25
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Chaos(ChaosConfig{Kind: core.MFCG, Nodes: 64, PPN: 2, Crashes: 1, Seed: 1, Heal: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(after.Mallocs-before.Mallocs) / float64(res.Issued)
	t.Logf("%d ops, %.2f allocs/op", res.Issued, rate)
	if rate > ceiling {
		t.Errorf("armed-path allocation rate %.2f allocs/op exceeds the %.2f ceiling (docs/SCALING.md)", rate, ceiling)
	}
}

// TestChaosEventsPerOpCeiling guards the failure detector's share of the
// event queue: the bench-sized healed chaos point (MFCG 256x2, 20 ops per
// rank, one crash, seed 1) must run under a ceiling of the measured events
// per issued operation plus 25 %. Ring observation over the topology's lines
// measured 53.3 events/op (one probe per line per period); the
// all-neighbor detector it replaced ran 249.5, 84 % of them probes.
func TestChaosEventsPerOpCeiling(t *testing.T) {
	const measured = 53.3
	const ceiling = measured * 1.25
	reg := obs.NewRegistry()
	res, err := Chaos(ChaosConfig{Kind: core.MFCG, Nodes: 256, PPN: 2, OpsPerRank: 20, Crashes: 1, Seed: 1, Heal: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rate := reg.Counter("sim_events_total").Value() / float64(res.Issued)
	t.Logf("%d ops, %.1f events/op", res.Issued, rate)
	if rate > ceiling {
		t.Errorf("healed chaos runs %.1f events/op, over the %.1f ceiling", rate, ceiling)
	}
}
