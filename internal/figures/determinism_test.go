package figures

import (
	"fmt"
	"sync"
	"testing"

	"armcivt/internal/apps/lu"
	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// The determinism contract (docs/ARCHITECTURE.md): a run is a function of
// its configuration alone, so a rerun and a run that shares the process
// with other runs — as `sweep -j N` workers do — are bit-identical to a lone
// run. These tests run each figure driver and the chaos harness once alone
// and then twice at once, and compare the full result structures, not
// summaries: any divergence in any series point, stats counter or ledger
// tally fails, and under -race any state two runs share is reported.

// sameAcrossWorkers runs run alone, then twice concurrently, and fails
// unless all three return the same text.
func sameAcrossWorkers(t *testing.T, run func() (string, error)) {
	t.Helper()
	base, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var got [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != base {
			t.Fatalf("concurrent run %d diverges from the lone run:\n%s\nvs\n%s", i, got[i], base)
		}
	}
}

// contentionText runs one contention configuration and renders its series.
func contentionText(c ContentionConfig) func() (string, error) {
	return func() (string, error) {
		s, err := Contention(c)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %v %v", s.Label, s.X, s.Y), nil
	}
}

// chaosText runs one chaos configuration and renders its full result: the
// ledger tallies and the merged stats block (timeouts, retries, heals,
// detection latencies).
func chaosText(c ChaosConfig) func() (string, error) {
	return func() (string, error) {
		res, err := Chaos(c)
		if err != nil {
			return "", err
		}
		if res.Issued == 0 || res.Completed == 0 {
			return "", fmt.Errorf("degenerate workload %+v", res)
		}
		return fmt.Sprintf("%+v", *res), nil
	}
}

func TestContentionDeterminismAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   ContentionOp
	}{{"fig6-vput", OpVectoredPut}, {"fig7-fadd", OpFetchAdd}} {
		for _, kind := range core.Kinds {
			t.Run(fmt.Sprintf("%s/%v", tc.name, kind), func(t *testing.T) {
				sameAcrossWorkers(t, contentionText(ContentionConfig{
					Kind: kind, Nodes: 32, PPN: 2, Iters: 5, ContenderEvery: 5, Op: tc.op,
				}))
			})
		}
	}
	// The aggregation + windowed pipeline paths exercise batching and the
	// credit machinery.
	t.Run("window4+agg/MFCG", func(t *testing.T) {
		sameAcrossWorkers(t, contentionText(ContentionConfig{
			Kind: core.MFCG, Nodes: 32, PPN: 2, Iters: 6, ContenderEvery: 5,
			Window: 4, Aggregation: true,
		}))
	})
}

func TestChaosDeterminismAcrossWorkers(t *testing.T) {
	for _, kind := range core.Kinds {
		for _, heal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/heal=%v", kind, heal), func(t *testing.T) {
				sameAcrossWorkers(t, chaosText(ChaosConfig{Kind: kind, Nodes: 32, PPN: 2, Heal: heal}))
			})
		}
	}
}

// TestAppDeterminismAcrossWorkers runs the NAS LU proxy (notify-wait
// wavefronts, allreduce collectives): the app figures must honour the same
// contract as the microbenchmarks.
func TestAppDeterminismAcrossWorkers(t *testing.T) {
	cfg := lu.Config{NX: 64, NY: 64, Iters: 3, CellFlop: 100, ResidualEvery: 2}
	sameAcrossWorkers(t, func() (string, error) {
		var out string
		for _, kind := range core.Kinds {
			v, err := AppPoint(core.Spec{Kind: kind}, 32, 2, LU(cfg), nil, nil, 0)
			if err != nil {
				return "", err
			}
			out += fmt.Sprintf("%v %v\n", kind, v)
		}
		return out, nil
	})
}

// TestTracedRunMatchesUntraced: tracing observes a run without changing it.
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain, err := contentionText(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
	})()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := contentionText(ContentionConfig{
		Kind: core.FCG, Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 4,
		Trace: obs.NewTracer(), TracePID: 1,
	})()
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("traced run diverges from the untraced one:\n%s\nvs\n%s", traced, plain)
	}
}
