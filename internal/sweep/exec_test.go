package sweep_test

import (
	"testing"

	"armcivt/internal/obs"
	"armcivt/internal/sweep"
)

// metricValue returns the value column of the named metric in a point's
// metrics snapshot.
func metricValue(t *testing.T, res sweep.Result, name string) string {
	t.Helper()
	if res.Snapshot == nil {
		t.Fatalf("%s: no metrics snapshot", res.Label)
	}
	for _, row := range res.Snapshot.Rows {
		if row[0] == name {
			return row[4]
		}
	}
	t.Fatalf("%s: snapshot has no %s row", res.Label, name)
	return ""
}

// A chaos point runs on the kernel shard count the sweep was given, as
// contention points do.
func TestExecuteChaosHonorsShards(t *testing.T) {
	p := sweep.Point{Experiment: sweep.ExpChaos, Topo: "MFCG", Nodes: 16, PPN: 1,
		Iters: 4, Crashes: 1, Heal: "on", Metrics: true}
	res := sweep.Execute(p, sweep.ExecOptions{Shards: 2})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if got := metricValue(t, res, "sim_shards"); got != "2" {
		t.Fatalf("sim_shards = %s, want 2", got)
	}
}

// Scheduler-slice tracing rides the ordinary executor: a traced point with
// TraceSched still returns its metrics snapshot, and the trace holds the
// scheduler run-slices next to the CHT spans.
func TestTraceSchedKeepsMetricsSnapshot(t *testing.T) {
	points := []sweep.Point{{Experiment: sweep.ExpContention, Topo: "MFCG", Nodes: 9, PPN: 1,
		Iters: 2, SampleEvery: 2, Metrics: true}}
	sweep.Reindex(points)
	tr := obs.NewTracer()
	r := &sweep.Runner{Workers: 1, ExecOptions: sweep.ExecOptions{Trace: tr, TraceSched: true}}
	results, _ := r.Run(points)
	if results[0].Err != "" {
		t.Fatal(results[0].Err)
	}
	if got := metricValue(t, results[0], "armci_ops_total"); got == "0" {
		t.Fatalf("armci_ops_total = %s, want the run's operations", got)
	}
	sched := 0
	for _, ev := range tr.Events() {
		if ev.Cat == "sched" {
			sched++
		}
	}
	if sched == 0 {
		t.Fatal("trace holds no scheduler slices")
	}
}

// An application cell records like the microbenchmark cells: with metrics
// on it returns a per-point snapshot of the runtime's counters, and a traced
// sweep records its spans under the point's process id. Neither changes
// the cell's value.
func TestAppCellRecordsMetricsAndTrace(t *testing.T) {
	plain := sweep.Point{Experiment: sweep.ExpLU, Topo: "FCG", Procs: 8, PPN: 4, Iters: 1}
	want := sweep.Execute(plain, sweep.ExecOptions{})
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	observed := plain
	observed.Metrics = true
	points := []sweep.Point{observed}
	sweep.Reindex(points)
	tr := obs.NewTracer()
	results, _ := (&sweep.Runner{Workers: 1, ExecOptions: sweep.ExecOptions{Trace: tr}}).Run(points)
	res := results[0]
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Value != want.Value {
		t.Fatalf("observed cell = %v s, plain cell = %v s", res.Value, want.Value)
	}
	if got := metricValue(t, res, "armci_ops_total"); got == "0" {
		t.Fatalf("armci_ops_total = %s, want the run's operations", got)
	}
	spans := 0
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.PID == res.Point.Index {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace holds no spans of the app cell")
	}
}
