package armci

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// armedChaosSections runs the fully armed chaos mix — crash-stops with
// healing, an ejection storm on node 0, timeouts and retries — on 32x2
// nodes of the given family, steps it through horizons every step, and
// returns the sim, fabric, faults and armci sections read at each horizon
// the run stops at that is a multiple of 250 µs.
func armedChaosSections(t *testing.T, kind core.Kind, crashes int, step sim.Time) [][]byte {
	t.Helper()
	const (
		nodes, ppn = 32, 2
		seed       = 1
		horizon    = 2 * sim.Millisecond
		every      = 250 * sim.Microsecond
	)
	eng := sim.New()
	eng.Seed(seed)
	schedule := faults.RandomNodeFaults(seed, nodes, crashes, horizon)
	victim := map[int]bool{}
	for _, f := range schedule {
		victim[f.A] = true
	}
	storm := faults.MustParseSpec("storm:0@t=100us@for=300us@bw=0.25@period=50us")
	inj := faults.NewInjector(eng, nodes, &faults.Spec{Faults: append(schedule, storm.Faults...)})

	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(kind, nodes)
	cfg.Faults = inj
	cfg.Heal.Enabled = true
	cfg.RequestTimeout = 200 * sim.Microsecond
	cfg.MaxRetries = 4
	cfg.CreditTimeout = 400 * sim.Microsecond
	sim.NewWatchdog(eng, 0, 0).Start()
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	n := rt.NRanks()
	var survivors []int
	for rank := 0; rank < n; rank++ {
		if !victim[rank/ppn] {
			survivors = append(survivors, rank)
		}
	}
	rt.Alloc("ledger", 8*n)
	rt.Start(func(r *Rank) {
		if victim[r.Node()] {
			r.Sleep(2 * horizon)
			return
		}
		rng := rand.New(rand.NewSource(int64(r.Rank())))
		for i := 0; i < 8; i++ {
			r.Wait(r.NbAcc(survivors[rng.Intn(len(survivors))], "ledger", 8*r.Rank(), 1.0, []float64{1}))
			r.Sleep(sim.Time(int64(20*sim.Microsecond) + rng.Int63n(int64(60*sim.Microsecond))))
		}
	})
	var sections [][]byte
	for h := step; ; h += step {
		err := eng.RunUntil(h)
		var tl *sim.TimeLimitError
		if !errors.As(err, &tl) {
			if err != nil {
				t.Fatalf("step %v: RunUntil(%v): %v", step, h, err)
			}
			break
		}
		if h%every == 0 {
			sections = append(sections, bytes.Join([][]byte{eng.CheckpointSection(), rt.net.CheckpointSection(),
				inj.CheckpointSection(), rt.checkpointSection()}, nil))
		}
	}
	// The mix must exercise membership: confirmations and the notices that
	// announce them along the lines.
	if s := rt.Stats(); s.Confirms == 0 || s.Notices == 0 || s.Completions == 0 {
		t.Fatalf("step %v: the mix never confirmed and announced a crash or completed an op: %+v", step, s)
	}
	return sections
}

// Every layer's state digest must match byte for byte at every 250 µs
// horizon, whether the armed mix stops there alone or also at every 50 µs
// between: the per-horizon form of the bit-identity contract (a run resumed
// from any horizon continues as one that never stopped), which also
// localizes a divergence to its first horizon. The CFCG case adds a third
// crash, so reboot announcements and dead-set hand-overs are cut by
// horizons too.
func TestArmedChaosSectionsMatchAcrossHorizons(t *testing.T) {
	for _, tc := range []struct {
		kind    core.Kind
		crashes int
	}{{core.MFCG, 2}, {core.CFCG, 3}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			coarse := armedChaosSections(t, tc.kind, tc.crashes, 250*sim.Microsecond)
			if len(coarse) < 17 {
				t.Fatalf("run passed only %d horizons; want at least 17", len(coarse))
			}
			t.Logf("%d horizons", len(coarse))
			fine := armedChaosSections(t, tc.kind, tc.crashes, 50*sim.Microsecond)
			if len(fine) != len(coarse) {
				t.Fatalf("50 µs steps passed %d 250 µs horizons, 250 µs steps %d", len(fine), len(coarse))
			}
			for i := range coarse {
				if !bytes.Equal(coarse[i], fine[i]) {
					t.Fatalf("horizon %d: sections of the 50 µs-stepped run differ", i)
				}
			}
		})
	}
}
