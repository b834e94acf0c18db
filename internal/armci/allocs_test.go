package armci_test

// Allocation gates for the steady-state op paths: once a run's free lists,
// event queue and fabric lanes are warm, a blocking operation allocates
// nothing (docs/SCALING.md, "Free lists and the allocs/op contract"). The
// gates measure from inside a rank body, so everything the operation sets
// off in the engine, the CHTs and the fabric counts.

import (
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/ga"
	"armcivt/internal/sim"
)

// opAllocs runs op warm times on rank 0 of an MFCG 16x1 job, then returns
// testing.AllocsPerRun's count for it: mallocs per call, rounded down.
func opAllocs(t *testing.T, tweak func(*armci.Config), setup func(rt *armci.Runtime), op func(r *armci.Rank)) float64 {
	t.Helper()
	const warm, runs = 400, 200
	cfg := armci.DefaultConfig(16, 1)
	cfg.Topology = core.MustNew(core.MFCG, 16)
	if tweak != nil {
		tweak(&cfg)
	}
	rt := armci.MustNew(sim.New(), cfg)
	setup(rt)
	allocs := -1.0
	if err := rt.Run(func(r *armci.Rank) {
		if r.Rank() != 0 {
			return
		}
		for i := 0; i < warm; i++ {
			op(r)
		}
		allocs = testing.AllocsPerRun(runs, func() { op(r) })
	}); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	return allocs
}

func TestSteadyStateOpsAllocateNothing(t *testing.T) {
	segs := []armci.Seg{{Off: 0, Len: 64}, {Off: 128, Len: 64}, {Off: 256, Len: 64}, {Off: 384, Len: 64}}
	data := make([]byte, 256)
	var arr *ga.Array
	out := ga.NewMatrix(8, 8)
	for _, c := range []struct {
		name  string
		tweak func(*armci.Config)
		setup func(rt *armci.Runtime)
		op    func(r *armci.Rank)
	}{
		{"remote FetchAdd", nil,
			func(rt *armci.Runtime) { rt.Alloc("c", 8) },
			func(r *armci.Rank) { r.FetchAdd(15, "c", 0, 1) }},
		{"remote PutV", nil,
			func(rt *armci.Runtime) { rt.Alloc("m", 512) },
			func(r *armci.Rank) { r.PutV(15, "m", segs, data) }},
		{"ga block Get", nil,
			// A 32x32 array over a 4x4 grid: 8x8 blocks, so rows 8-16 of
			// columns 8-16 live on rank 5 alone and rows 4-12 of columns
			// 4-12 on ranks 0, 1, 4 and 5.
			func(rt *armci.Runtime) { arr = ga.Create(rt, "a", 32, 32) },
			func(r *armci.Rank) {
				arr.GetInto(r, [2]int{8, 8}, [2]int{16, 16}, out)
				arr.GetInto(r, [2]int{4, 4}, [2]int{12, 12}, out)
			}},
		{"armed FetchAdd", func(c *armci.Config) { c.RequestTimeout = 50 * sim.Microsecond },
			func(rt *armci.Runtime) { rt.Alloc("c", 8) },
			func(r *armci.Rank) { r.FetchAdd(15, "c", 0, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := opAllocs(t, c.tweak, c.setup, c.op); got != 0 {
				t.Errorf("%s allocates %v objects per call in steady state, want 0", c.name, got)
			}
		})
	}
}
