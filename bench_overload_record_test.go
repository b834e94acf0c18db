package armcivt_test

// BENCH_overload.json is the committed collapse-comparison record of the
// overload-protection layer (docs/OVERLOAD.md): the incast-storm harness
// measured across storm intensities with protection off and on. Unlike the
// wall-clock record (BENCH_shards.json), every number
// here is *virtual* time — goodput in completed ops per virtual
// millisecond, latency in virtual microseconds — so the record is exactly
// reproducible on any host. Two claims are on record:
//
//   - collapse: the unprotected arm's goodput drops to less than half the
//     protected arm's at the base storm intensity (the >= 2x protection
//     win the layer exists for), stays at least 1.5x behind at every
//     intensity, and its p99 window latency is worse everywhere. The win
//     is largest at the base intensity because the unprotected collapse is
//     load-driven — the incast alone jams the hot port; extra storms only
//     stretch an already-standing backlog.
//
//   - accounting: in both arms every issued op is accounted as completed
//     or shed, and the unprotected arm never sheds (it has no admission
//     control; its losses are pure queueing).
//
// TestOverloadBenchRecord validates the committed record cheaply on every
// test run; regeneration (a dozen 64-node incast simulations) runs with
// -update-bench-overload. CI re-proves the invariants live on every push
// via the overload-ci sweep smoke.

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"armcivt/internal/ckpt"
	"armcivt/internal/core"
	"armcivt/internal/figures"
)

var updateBenchOverload = flag.Bool("update-bench-overload", false, "re-run the overload storm grid and rewrite BENCH_overload.json")

const benchOverloadPath = "BENCH_overload.json"

// benchOverloadSchema versions the BENCH_overload.json layout.
const benchOverloadSchema = "armcivt-bench-overload/v1"

// benchOverloadStorms is the measured storm-intensity axis; each intensity
// runs protection off and on against the same schedule.
var benchOverloadStorms = []int{2, 4, 6}

type benchOverloadRecord struct {
	Schema string `json:"schema"`
	// Workload pins the incast cell every row shares: every rank off the
	// hot node pipelines accumulates at it while storm bursts squeeze the
	// hot node's ejection bandwidth (figures.OverloadConfig defaults).
	Workload struct {
		Topo       string `json:"topo"`
		Nodes      int    `json:"nodes"`
		PPN        int    `json:"ppn"`
		OpsPerRank int    `json:"ops_per_rank"`
		Tenants    int    `json:"tenants"`
	} `json:"workload"`
	Rows []benchOverloadRow `json:"rows"`
}

type benchOverloadRow struct {
	StormsN int     `json:"storms"`
	Protect bool    `json:"protect"`
	Goodput float64 `json:"goodput_ops_per_ms"`
	// WindowP99US is the 99th-percentile virtual latency of one pipelined
	// window (issue to WaitAll), microseconds.
	WindowP99US float64 `json:"window_p99_us"`
	Issued      int     `json:"issued"`
	Completed   int     `json:"completed"`
	Shed        int     `json:"shed"`
}

func benchOverloadConfig(storms int, protect bool) figures.OverloadConfig {
	return figures.OverloadConfig{Kind: core.MFCG, Storms: storms, Protect: protect}
}

func TestOverloadBenchRecord(t *testing.T) {
	if *updateBenchOverload {
		regenerateBenchOverload(t)
	}
	raw, err := os.ReadFile(benchOverloadPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-bench-overload): %v", benchOverloadPath, err)
	}
	var rec benchOverloadRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("parsing %s: %v", benchOverloadPath, err)
	}
	if rec.Schema != benchOverloadSchema {
		t.Fatalf("schema = %q, want %q", rec.Schema, benchOverloadSchema)
	}
	if rec.Workload.Tenants < 2 {
		t.Error("record must come from a multi-tenant incast (the fairness claim needs >= 2 tenants)")
	}

	type arm struct{ off, on *benchOverloadRow }
	arms := map[int]*arm{}
	minStorms := 0
	for i := range rec.Rows {
		r := &rec.Rows[i]
		if r.Goodput <= 0 || r.Issued <= 0 {
			t.Errorf("storms=%d protect=%v: degenerate row (goodput %.2f, issued %d)", r.StormsN, r.Protect, r.Goodput, r.Issued)
		}
		if r.Issued != r.Completed+r.Shed {
			t.Errorf("storms=%d protect=%v: accounting broken: %d issued != %d completed + %d shed",
				r.StormsN, r.Protect, r.Issued, r.Completed, r.Shed)
		}
		if !r.Protect && r.Shed != 0 {
			t.Errorf("storms=%d: unprotected arm shed %d ops; it has no admission control", r.StormsN, r.Shed)
		}
		a := arms[r.StormsN]
		if a == nil {
			a = &arm{}
			arms[r.StormsN] = a
		}
		if r.Protect {
			a.on = r
		} else {
			a.off = r
		}
		if minStorms == 0 || r.StormsN < minStorms {
			minStorms = r.StormsN
		}
	}
	for storms, a := range arms {
		if a.off == nil || a.on == nil {
			t.Fatalf("storms=%d is missing one arm; the record must pair protection off and on", storms)
		}
		if a.on.WindowP99US >= a.off.WindowP99US {
			t.Errorf("storms=%d: protected p99 window latency %.1fus is not below unprotected %.1fus",
				storms, a.on.WindowP99US, a.off.WindowP99US)
		}
		if ratio := a.on.Goodput / a.off.Goodput; ratio < 1.5 {
			t.Errorf("storms=%d: protected/unprotected goodput ratio %.2fx < 1.5x (%.2f vs %.2f ops/ms)",
				storms, ratio, a.on.Goodput, a.off.Goodput)
		}
	}
	// The headline claim: at the base storm intensity — where both arms
	// absorb the whole schedule — protection must win goodput by at least
	// 2x, the collapse the layer exists to prevent.
	base := arms[minStorms]
	if ratio := base.on.Goodput / base.off.Goodput; ratio < 2.0 {
		t.Errorf("storms=%d: protected/unprotected goodput ratio %.2fx < 2x (%.2f vs %.2f ops/ms)",
			minStorms, ratio, base.on.Goodput, base.off.Goodput)
	}
}

func regenerateBenchOverload(t *testing.T) {
	var rec benchOverloadRecord
	rec.Schema = benchOverloadSchema
	// Pin the workload fields from the harness's applied defaults.
	sample := benchOverloadConfig(benchOverloadStorms[0], false)
	rec.Workload.Topo = sample.Kind.String()
	rec.Workload.Nodes = 64
	rec.Workload.PPN = 2
	rec.Workload.OpsPerRank = 64
	rec.Workload.Tenants = 2

	for _, storms := range benchOverloadStorms {
		for _, protect := range []bool{false, true} {
			res, err := figures.Overload(benchOverloadConfig(storms, protect))
			if err != nil {
				t.Fatal(err)
			}
			rec.Rows = append(rec.Rows, benchOverloadRow{
				StormsN: storms, Protect: protect,
				Goodput:     res.Goodput(),
				WindowP99US: res.WindowP99,
				Issued:      res.Issued, Completed: res.Completed, Shed: res.Shed,
			})
			t.Logf("storms=%d protect=%v goodput=%.2f ops/ms p99=%.1fus issued=%d completed=%d shed=%d",
				storms, protect, res.Goodput(), res.WindowP99, res.Issued, res.Completed, res.Shed)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteFileAtomic(benchOverloadPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", benchOverloadPath)
}
