package armci

import (
	"bytes"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/sim"
)

func TestMasterRSSForStandalone(t *testing.T) {
	topo := core.MustNew(core.MFCG, 1024)
	cfg := DefaultConfig(1024, 12)
	got := MasterRSSFor(cfg, topo, 0)
	deg := int64(topo.Degree(0))
	want := cfg.BaseRSSBytes + deg*12*4*int64(cfg.BufSize) + deg*12*cfg.ConnBytes
	if got != want {
		t.Errorf("MasterRSSFor = %d, want %d", got, want)
	}
}

func TestMasterRSSForPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config accepted")
		}
	}()
	MasterRSSFor(Config{Nodes: -1, PPN: 2}, core.MustNew(core.FCG, 4), 0)
}

func TestCHTPollCostGrowsWithUpstreamSources(t *testing.T) {
	// The hot-node degradation mechanism: serving N requests from many
	// distinct peers must take longer than serving N requests from one.
	run := func(senders int) sim.Time {
		eng := sim.New()
		cfg := DefaultConfig(33, 1)
		cfg.Topology = core.MustNew(core.FCG, 33)
		cfg.CHTPollPerSource = 500 * sim.Nanosecond // amplify for clarity
		rt, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Alloc("hot", 8)
		const totalOps = 32
		opsEach := totalOps / senders
		if err := rt.Run(func(r *Rank) {
			if r.Rank() == 0 || r.Rank() > senders {
				return
			}
			for k := 0; k < opsEach; k++ {
				r.FetchAdd(0, "hot", 0, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	one := run(1)
	many := run(32)
	if many <= one {
		t.Errorf("32 interleaved sources (%v) not slower than 1 source (%v) for equal work", many, one)
	}
}

func TestStridedMultiChunkRoundTrip(t *testing.T) {
	_, rt := testRuntime(t, core.MFCG, 9, 1)
	cfg := rt.Config()
	// A strided region whose total exceeds several buffers.
	count := 40
	blockLen := cfg.BufSize / 8
	stride := blockLen + 128
	rt.Alloc("s", count*stride+blockLen)
	data := make([]byte, count*blockLen)
	for i := range data {
		data[i] = byte(i * 13)
	}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.PutS(8, "s", 0, blockLen, stride, count, data)
		got := r.GetS(8, "s", 0, blockLen, stride, count)
		if !bytes.Equal(got, data) {
			t.Error("multi-chunk strided round trip mismatch")
		}
		// Gap bytes untouched.
		gap := r.Get(8, "s", blockLen, 64)
		if !bytes.Equal(gap, make([]byte, 64)) {
			t.Error("strided put leaked into gaps")
		}
	})
	if rt.Stats().Requests < 5 {
		t.Errorf("expected chunked traffic, got %d requests", rt.Stats().Requests)
	}
}

func TestFenceMixedOperations(t *testing.T) {
	_, rt := testRuntime(t, core.CFCG, 8, 1)
	rt.Alloc("m", 1<<16)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		h1 := r.NbPut(3, "m", 0, bytes.Repeat([]byte{1}, 100))
		h2 := r.NbAcc(5, "m", 0, 2.0, []float64{1, 2})
		h3 := r.NbGetS(7, "m", 0, 16, 64, 4)
		h4 := r.NbPutV(6, "m", []Seg{{Off: 0, Len: 8}}, make([]byte, 8))
		r.Fence()
		for i, h := range []*Handle{h1, h2, h3, h4} {
			if !h.Done() {
				t.Errorf("handle %d incomplete after Fence", i)
			}
		}
		// Fence is idempotent and cheap when nothing is outstanding.
		r.Fence()
	})
}

func TestRuntimeOnBlueGenePPreset(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(16, 2)
	cfg.Topology = core.MustNew(core.MFCG, 16)
	cfg.Fabric = fabric.BlueGenePConfig(16)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 1024)
	runAll(t, rt, func(r *Rank) {
		r.Put((r.Rank()+3)%r.N(), "m", 8*r.Rank(), []byte{9})
		r.Barrier()
	})
}

func TestRunErrorSurfacesFromStart(t *testing.T) {
	// Start without Run, then drive the engine manually: the runtime's
	// split Start/engine-Run path must behave like Run.
	eng := sim.New()
	cfg := DefaultConfig(4, 1)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 8)
	done := 0
	rt.Start(func(r *Rank) {
		r.FetchAdd(0, "m", 0, 1)
		done++
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Errorf("done = %d, want 4", done)
	}
}

func TestBarrierStepCostModel(t *testing.T) {
	// Barrier cost = ceil(log2(N)) * BarrierStep after the last arrival.
	eng := sim.New()
	cfg := DefaultConfig(8, 1)
	cfg.BarrierStep = 1000
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var exitAt sim.Time
	if err := rt.Run(func(r *Rank) {
		r.Barrier()
		exitAt = r.Now()
	}); err != nil {
		t.Fatal(err)
	}
	// Arrivals propagate to the global barrier state after one link hop
	// latency (the engine's global delay), then the dissemination sleep
	// costs ceil(log2(8)) = 3 steps.
	want := rt.net.Config().HopLatency + 3000
	if exitAt != want {
		t.Errorf("barrier exit at %v, want %v", exitAt, want)
	}
}
