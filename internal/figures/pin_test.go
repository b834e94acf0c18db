package figures

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// TestPinnedArmedRuns pins the exact outcome of three runs with the optional
// subsystems armed — overload protection, aggregation, healing and storms —
// to values recorded from an earlier build. The
// subsystems' tuning values are model constants; any change to one of them,
// or to the code paths they steer, moves these numbers, so a refactor that
// must keep every run bit-identical is checked here rather than only in the
// shard-determinism tests (which compare a build against itself).
//
// Overload and Chaos report their virtual makespan and the runtime's full
// Stats. Contention reports only its series, so its row pins an FNV-64a hash
// of the series' exact float bits as the time witness and rebuilds Stats
// from the counters FillMetrics exports (every field a fault-free run can
// move).
func TestPinnedArmedRuns(t *testing.T) {
	cases := []struct {
		name      string
		run       func() (uint64, armci.Stats, error)
		wantTime  uint64
		wantStats armci.Stats
	}{
		{
			name: "overload/protected/MFCG",
			run: func() (uint64, armci.Stats, error) {
				res, err := Overload(OverloadConfig{Kind: core.MFCG, Protect: true})
				if err != nil {
					return 0, armci.Stats{}, err
				}
				return uint64(res.Elapsed), res.Stats, nil
			},
			wantTime: 14450392,
			wantStats: armci.Stats{Ops: 8064, Requests: 1788, Forwards: 784, CreditWaits: 19, CreditWaited: 3317484,
				MaxCHTBacklog: 9, AggBatches: 1788, AggBatchedOps: 13830, Completions: 7786, Admitted: 7786,
				ShedOps: 278, ShedDeadline: 275, ShedClass: 3, PaceWaits: 6372, PaceWaited: 1069414360,
				PaceBackoffs: 19, PaceSlams: 123, CEAcks: 1789},
		},
		{
			name: "contention/vput+window8+agg+overload/MFCG32x2",
			run: func() (uint64, armci.Stats, error) {
				reg := obs.NewRegistry()
				s, err := Contention(ContentionConfig{
					Kind: core.MFCG, Nodes: 32, PPN: 2, Iters: 5, ContenderEvery: 2,
					Window: 8, Aggregation: true, Overload: true,
					Metrics: reg,
				})
				if err != nil {
					return 0, armci.Stats{}, err
				}
				h := fnv.New64a()
				for i := range s.X {
					fmt.Fprintf(h, "%x:%x;", math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]))
				}
				return h.Sum64(), statsFromMetrics(reg), nil
			},
			wantTime: 11640660236671455140,
			wantStats: armci.Stats{Ops: 24646, Requests: 37952, Forwards: 13306, CreditWaits: 492, CreditWaited: 58774026,
				MaxCHTBacklog: 24, Completions: 24646, Admitted: 24646, PaceWaits: 20045,
				PaceWaited: 5542338540, PaceBackoffs: 1291, PaceSlams: 1214, CEAcks: 5437},
		},
		{
			name: "chaos/heal+storms+overload/MFCG32x2",
			run: func() (uint64, armci.Stats, error) {
				res, err := Chaos(ChaosConfig{
					Kind: core.MFCG, Nodes: 32, PPN: 2, Heal: true, Storms: 2, Overload: true,
				})
				if err != nil {
					return 0, armci.Stats{}, err
				}
				return uint64(res.Elapsed), res.Stats, nil
			},
			wantTime: 10000000,
			wantStats: armci.Stats{Ops: 1160, Requests: 1939, Forwards: 781, LocalOps: 36, MaxCHTBacklog: 3,
				Timeouts: 35, Retries: 34, Failures: 1, Reroutes: 13, Suspicions: 6, Confirms: 4, Rejoins: 8,
				CreditWriteOffs: 17, MaxDetectLatency: 677930, MaxNotifyLatency: 679482, Probes: 4464,
				Notices: 23, Completions: 1123, Admitted: 1124, PaceWaits: 585, PaceWaited: 308829},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotTime, gotStats, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if gotTime != tc.wantTime {
				t.Errorf("time witness = %d, want %d", gotTime, tc.wantTime)
			}
			if gotStats != tc.wantStats {
				t.Errorf("stats differ from the pinned run:\n got: %s\nwant: %s",
					statsLiteral(gotStats), statsLiteral(tc.wantStats))
			}
		})
	}
}

// statsFromMetrics rebuilds the Stats a contention run exported through
// FillMetrics. Time-valued fields come back from microsecond floats, rounded
// to the nanosecond they were recorded in.
func statsFromMetrics(reg *obs.Registry) armci.Stats {
	c := func(name string) uint64 { return uint64(reg.Counter(name).Value()) }
	us := func(v float64) sim.Time { return sim.Time(math.Round(v * 1000)) }
	return armci.Stats{
		Ops:           c("armci_ops_total"),
		Requests:      c("armci_request_chunks_total"),
		Forwards:      c("armci_forwards_total"),
		LocalOps:      c("armci_local_ops_total"),
		CreditWaits:   c("armci_credit_wait_events_total"),
		CreditWaited:  us(reg.Histogram("armci_credit_wait_us", obs.TimeBuckets).Sum()),
		MaxCHTBacklog: int(reg.Gauge("armci_cht_backlog_peak").Value()),
		Timeouts:      c("armci_request_timeouts_total"),
		Retries:       c("armci_retries_total"),
		Failures:      c("armci_request_failures_total"),
		CreditRegens:  c("armci_credit_regens_total"),
		Reroutes:      c("armci_cht_reroutes_total"),
		DupDrops:      c("armci_dup_drops_total"),
		NoRoutes:      c("armci_forward_no_route_total"),
		AggBatches:    c("armci_agg_batches_total"),
		AggBatchedOps: c("armci_agg_batched_ops_total"),
		Completions:   c("armci_completions_total"),
		Admitted:      c("armci_overload_admitted_total"),
		ShedOps:       c("armci_shed_total"),
		ShedBudget:    c("armci_shed_budget_total"),
		ShedDeadline:  c("armci_shed_deadline_total"),
		ShedClass:     c("armci_shed_class_total"),
		PaceWaits:     c("armci_pacing_waits_total"),
		PaceWaited:    us(reg.Gauge("armci_pacing_waited_us").Value()),
		PaceBackoffs:  c("armci_pacing_backoffs_total"),
		PaceSlams:     c("armci_pacing_slams_total"),
		CEAcks:        c("armci_overload_ce_acks_total"),
	}
}

// statsLiteral renders s as the Go composite literal of its non-zero fields,
// with times in nanoseconds, so a deliberate re-recording is a paste.
func statsLiteral(s armci.Stats) string {
	v := reflect.ValueOf(s)
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		var n any
		if f.CanInt() {
			n = f.Int()
		} else {
			n = f.Uint()
		}
		parts = append(parts, fmt.Sprintf("%s: %d", v.Type().Field(i).Name, n))
	}
	return "armci.Stats{" + strings.Join(parts, ", ") + "}"
}
