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

// TestPinnedArmedRuns pins the exact outcome of runs with the optional
// subsystems armed — aggregation, healing and storms — to values recorded
// from an earlier build. The
// subsystems' tuning values are model constants; any change to one of them,
// or to the code paths they steer, moves these numbers, so a refactor that
// must keep every run bit-identical is checked here rather than only in the
// determinism tests (which compare a build against itself).
//
// Chaos reports its virtual makespan and the runtime's full Stats. Contention reports only its series, so its row pins an FNV-64a hash
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
			// This row pins the window path: its 32 x 256 B vectored puts
			// are above the aggregation size threshold, so none batches
			// (AggBatches 0). The fetch-add row below pins batching.
			name: "contention/vput+window8+agg/MFCG32x2",
			run: func() (uint64, armci.Stats, error) {
				return pinnedContention(ContentionConfig{
					Kind: core.MFCG, Nodes: 32, PPN: 2, Iters: 5, ContenderEvery: 2,
					Window: 8, Aggregation: true,
				})
			},
			wantTime: 12787699613694857544,
			wantStats: armci.Stats{Ops: 43134, Requests: 62944, Forwards: 19810, CreditWaits: 25495,
				CreditWaited: 21700234242, MaxCHTBacklog: 24},
		},
		{
			// Fetch-adds are small enough to batch: this row pins the
			// aggregation path (opBatch packets and their sub-op records).
			name: "contention/fadd+window8+agg/MFCG32x2",
			run: func() (uint64, armci.Stats, error) {
				return pinnedContention(ContentionConfig{
					Kind: core.MFCG, Nodes: 32, PPN: 2, Iters: 5, ContenderEvery: 2,
					Op: OpFetchAdd, Window: 8, Aggregation: true,
				})
			},
			wantTime: 16172483435389685517,
			wantStats: armci.Stats{Ops: 19174, Requests: 3953, Forwards: 1533, MaxCHTBacklog: 28,
				AggBatches: 3953, AggBatchedOps: 31312},
		},
		{
			name: "chaos/heal+storms/MFCG32x2",
			run: func() (uint64, armci.Stats, error) {
				res, err := Chaos(ChaosConfig{
					Kind: core.MFCG, Nodes: 32, PPN: 2, Heal: true, Storms: 2,
				})
				if err != nil {
					return 0, armci.Stats{}, err
				}
				return uint64(res.Elapsed), res.Stats, nil
			},
			wantTime: 10000000,
			wantStats: armci.Stats{Ops: 1160, Requests: 1939, Forwards: 780, LocalOps: 36, MaxCHTBacklog: 4,
				Timeouts: 36, Retries: 35, Failures: 1, Reroutes: 13, Suspicions: 6, Confirms: 4, Rejoins: 8,
				CreditWriteOffs: 19, MaxDetectLatency: 677930, MaxNotifyLatency: 679482, Probes: 4524,
				Notices: 23, Completions: 1123},
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

// pinnedContention runs cfg with a fresh metrics registry and returns an
// FNV-64a hash of the series' exact float bits with the Stats rebuilt from
// the exported counters.
func pinnedContention(cfg ContentionConfig) (uint64, armci.Stats, error) {
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, err := Contention(cfg)
	if err != nil {
		return 0, armci.Stats{}, err
	}
	h := fnv.New64a()
	for i := range s.X {
		fmt.Fprintf(h, "%x:%x;", math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]))
	}
	return h.Sum64(), statsFromMetrics(reg), nil
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
