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
// healing, an ejection storm on node 0, timeouts and retries — on 32x2 nodes of the given family, steps it through horizons
// every 250 µs, and returns the sim, fabric, faults and armci sections read
// at each horizon the run stops at.
func armedChaosSections(t *testing.T, kind core.Kind, crashes, shards int) [][]byte {
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
	cfg.Shards = shards
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
	for h := every; ; h += every {
		err := eng.RunUntil(h)
		var tl *sim.TimeLimitError
		if !errors.As(err, &tl) {
			if err != nil {
				t.Fatalf("shards=%d: RunUntil(%v): %v", shards, h, err)
			}
			break
		}
		sections = append(sections, bytes.Join([][]byte{eng.CheckpointSection(), rt.net.CheckpointSection(),
			inj.CheckpointSection(), rt.checkpointSection()}, nil))
	}
	// Membership notices cross shards (a line spans nodes on several), so
	// the mix must send some.
	if s := rt.Stats(); s.Confirms == 0 || s.Notices == 0 || s.Completions == 0 {
		t.Fatalf("shards=%d: the mix never confirmed and announced a crash or completed an op: %+v", shards, s)
	}
	return sections
}

// Every layer's state digest must match byte for byte at every horizon,
// whether the armed mix runs serially or on eight shards: the per-horizon
// form of the bit-identity contract, which also localizes a divergence to
// its first horizon. The CFCG case adds a third crash, so reboot
// announcements and dead-set hand-overs cross shards too.
func TestArmedChaosSectionsMatchAcrossShards(t *testing.T) {
	for _, tc := range []struct {
		kind    core.Kind
		crashes int
	}{{core.MFCG, 2}, {core.CFCG, 3}} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			serial := armedChaosSections(t, tc.kind, tc.crashes, 1)
			if len(serial) < 17 {
				t.Fatalf("run passed only %d horizons; want at least 17", len(serial))
			}
			t.Logf("%d horizons", len(serial))
			sharded := armedChaosSections(t, tc.kind, tc.crashes, 8)
			if len(sharded) != len(serial) {
				t.Fatalf("shards=8 passed %d horizons, serial %d", len(sharded), len(serial))
			}
			for i := range serial {
				if !bytes.Equal(serial[i], sharded[i]) {
					t.Fatalf("horizon %d: shards=8 sections differ from serial", i)
				}
			}
		})
	}
}
