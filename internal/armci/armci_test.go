package armci

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// testRuntime builds a small runtime on the given topology kind.
func testRuntime(t *testing.T, kind core.Kind, nodes, ppn int) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(kind, nodes)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rt
}

func runAll(t *testing.T, rt *Runtime, body func(r *Rank)) {
	t.Helper()
	if err := rt.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	cases := []Config{
		{Nodes: 0, PPN: 1},
		{Nodes: 4, PPN: 0},
		{Nodes: 4, PPN: 1, BufSize: 100},
		{Nodes: 4, PPN: 1, BufsPerProc: -1},
		{Nodes: 4, PPN: 1, Topology: core.MustNew(core.FCG, 5)},
	}
	for i, c := range cases {
		if _, err := New(eng, c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestDefaultTopologyIsFCG(t *testing.T) {
	eng := sim.New()
	rt, err := New(eng, Config{Nodes: 4, PPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Topology().Kind() != core.FCG {
		t.Errorf("default topology = %v, want FCG", rt.Topology().Kind())
	}
	if rt.NRanks() != 8 {
		t.Errorf("NRanks = %d, want 8", rt.NRanks())
	}
}

func TestPutGetRoundTripAllTopologies(t *testing.T) {
	for _, kind := range core.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 8, 2)
			rt.Alloc("mem", 4096)
			runAll(t, rt, func(r *Rank) {
				// Each rank writes a pattern into (rank+5)%N and reads it back.
				dst := (r.Rank() + 5) % r.N()
				data := bytes.Repeat([]byte{byte(r.Rank() + 1)}, 128)
				r.Put(dst, "mem", 256*(r.Rank()%16), data)
				r.Barrier()
				got := r.Get(dst, "mem", 256*(r.Rank()%16), 128)
				if !bytes.Equal(got, data) {
					t.Errorf("%v rank %d: round trip mismatch", kind, r.Rank())
				}
			})
		})
	}
}

func TestPutCrossesChunkBoundary(t *testing.T) {
	_, rt := testRuntime(t, core.MFCG, 9, 1)
	size := 3*DefaultConfig(9, 1).BufSize + 777 // forces 4 chunks
	rt.Alloc("big", size)
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 31)
	}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(8, "big", 0, want)
			got := r.Get(8, "big", 0, size)
			if !bytes.Equal(got, want) {
				t.Error("multi-chunk put/get mismatch")
			}
		}
	})
	if st := rt.Stats(); st.Requests < 8 {
		t.Errorf("Requests = %d, want >= 8 (chunked)", st.Requests)
	}
}

func TestZeroLengthOps(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 1)
	rt.Alloc("m", 64)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(1, "m", 0, nil)
			if got := r.Get(1, "m", 0, 0); len(got) != 0 {
				t.Errorf("zero get returned %d bytes", len(got))
			}
			r.PutV(1, "m", nil, nil)
			if got := r.GetV(1, "m", nil); len(got) != 0 {
				t.Errorf("zero getv returned %d bytes", len(got))
			}
		}
	})
}

func TestSameNodeFastPath(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 4)
	rt.Alloc("m", 1024)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(3, "m", 16, []byte("hello")) // rank 3 on node 0
			if got := r.Get(3, "m", 16, 5); string(got) != "hello" {
				t.Errorf("same-node get = %q", got)
			}
		}
	})
	st := rt.Stats()
	if st.LocalOps < 2 {
		t.Errorf("LocalOps = %d, want >= 2", st.LocalOps)
	}
	if st.Requests != 0 {
		t.Errorf("same-node ops emitted %d network requests", st.Requests)
	}
}

func TestVectoredPutGet(t *testing.T) {
	for _, kind := range []core.Kind{core.FCG, core.MFCG, core.CFCG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 9, 1)
			rt.Alloc("v", 1<<16)
			segs := []Seg{{Off: 100, Len: 10}, {Off: 5000, Len: 300}, {Off: 40000, Len: 7}}
			data := make([]byte, 317)
			for i := range data {
				data[i] = byte(i + 3)
			}
			runAll(t, rt, func(r *Rank) {
				if r.Rank() != 0 {
					return
				}
				r.PutV(8, "v", segs, data)
				got := r.GetV(8, "v", segs)
				if !bytes.Equal(got, data) {
					t.Error("vectored round trip mismatch")
				}
				// Untouched bytes stay zero.
				if b := r.Get(8, "v", 110, 10); !bytes.Equal(b, make([]byte, 10)) {
					t.Error("vectored put touched bytes outside segments")
				}
			})
		})
	}
}

func TestVectoredPutHugeSegmentSplits(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 1)
	cfg := rt.Config()
	n := 2*cfg.BufSize + 123
	rt.Alloc("v", 3*cfg.BufSize)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.PutV(2, "v", []Seg{{Off: 5, Len: n}}, data)
			if got := r.Get(2, "v", 5, n); !bytes.Equal(got, data) {
				t.Error("oversized segment split incorrectly")
			}
		}
	})
}

func TestStridedLowersToVector(t *testing.T) {
	segs := StridedSegs(100, 8, 32, 4)
	want := []Seg{{100, 8}, {132, 8}, {164, 8}, {196, 8}}
	if fmt.Sprint(segs) != fmt.Sprint(want) {
		t.Fatalf("StridedSegs = %v, want %v", segs, want)
	}
	_, rt := testRuntime(t, core.MFCG, 4, 1)
	rt.Alloc("s", 4096)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		data := []byte("aaaabbbbccccdddd")
		r.PutS(3, "s", 0, 4, 16, 4, data)
		got := r.GetS(3, "s", 0, 4, 16, 4)
		if !bytes.Equal(got, data) {
			t.Errorf("strided round trip = %q", got)
		}
		// Block i landed at offset i*16.
		if b := r.Get(3, "s", 16, 4); string(b) != "bbbb" {
			t.Errorf("block 1 = %q, want bbbb", b)
		}
	})
}

func TestAccumulate(t *testing.T) {
	_, rt := testRuntime(t, core.CFCG, 8, 1)
	rt.Alloc("acc", 256)
	runAll(t, rt, func(r *Rank) {
		// All ranks accumulate 2.5 * [1, 2, 3] into rank 0 at offset 8.
		r.Acc(0, "acc", 8, 2.5, []float64{1, 2, 3})
		r.Barrier()
		if r.Rank() == 0 {
			got := BytesToFloat64s(r.Get(0, "acc", 8, 24))
			n := float64(r.N())
			want := []float64{2.5 * n, 5 * n, 7.5 * n}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("acc[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		}
	})
}

func TestAccumulateChunkedKeepsElementAlignment(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 1)
	cfg := rt.Config()
	nvals := cfg.BufSize/8 + 100 // forces 2 chunks
	rt.Alloc("acc", 8*nvals)
	vals := make([]float64, nvals)
	for i := range vals {
		vals[i] = float64(i)
	}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Acc(1, "acc", 0, 1.0, vals)
			got := BytesToFloat64s(r.Get(1, "acc", 0, 8*nvals))
			for i := range got {
				if got[i] != float64(i) {
					t.Fatalf("acc chunking corrupted element %d: %v", i, got[i])
				}
			}
		}
	})
}

func TestFetchAddAtomicAcrossRanks(t *testing.T) {
	for _, kind := range core.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 8, 2)
			rt.Alloc("ctr", 8)
			seen := map[int64]int{}
			runAll(t, rt, func(r *Rank) {
				for k := 0; k < 5; k++ {
					old := r.FetchAdd(0, "ctr", 0, 1)
					seen[old]++
				}
			})
			// 16 ranks x 5 increments: old values must be exactly 0..79.
			if len(seen) != 80 {
				t.Fatalf("%v: %d distinct ticket values, want 80", kind, len(seen))
			}
			for v, n := range seen {
				if n != 1 || v < 0 || v > 79 {
					t.Fatalf("%v: ticket %d seen %d times", kind, v, n)
				}
			}
		})
	}
}

func TestFetchAddNegativeDelta(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	rt.Alloc("ctr", 16)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.FetchAdd(1, "ctr", 8, 100)
			old := r.FetchAdd(1, "ctr", 8, -30)
			if old != 100 {
				t.Errorf("old = %d, want 100", old)
			}
			if v := GetInt64(r.Get(1, "ctr", 8, 8), 0); v != 70 {
				t.Errorf("value = %d, want 70", v)
			}
		}
	})
}

func TestLockMutualExclusion(t *testing.T) {
	for _, kind := range []core.Kind{core.FCG, core.MFCG, core.Hypercube} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 4, 2)
			rt.Alloc("shared", 8)
			inside := 0
			maxInside := 0
			runAll(t, rt, func(r *Rank) {
				for k := 0; k < 3; k++ {
					r.Lock(1)
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					// Unprotected read-modify-write on shared memory: only
					// safe if the lock really excludes.
					v := GetInt64(r.Local("shared"), 0)
					r.Sleep(500 * sim.Nanosecond)
					_ = v
					inside--
					r.Unlock(1)
				}
			})
			if maxInside != 1 {
				t.Errorf("%v: %d ranks inside critical section", kind, maxInside)
			}
		})
	}
}

func TestLockFIFOUnderContention(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 1)
	rt.Alloc("log", 8)
	var order []int
	runAll(t, rt, func(r *Rank) {
		// Stagger arrivals so the queue order is deterministic.
		r.Sleep(sim.Time(r.Rank()) * 10 * sim.Microsecond)
		r.Lock(0)
		order = append(order, r.Rank())
		r.Sleep(100 * sim.Microsecond)
		r.Unlock(0)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("lock grants out of FIFO order: %v", order)
		}
	}
}

func TestUnlockWithoutHoldPanics(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	panicked := false
	_ = rt.Run(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Unlock(0)
	})
	if !panicked {
		t.Error("unlock without hold did not panic")
	}
}

func TestNonBlockingOverlap(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 1)
	rt.Alloc("m", 1<<20)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		data := make([]byte, 1<<16)
		for i := range data {
			data[i] = byte(i)
		}
		t0 := r.Now()
		h1 := r.NbPut(1, "m", 0, data)
		h2 := r.NbPut(2, "m", 0, data)
		h3 := r.NbPut(3, "m", 0, data)
		issued := r.Now() - t0
		r.WaitAll(h1, h2, h3)
		completed := r.Now() - t0
		if !h1.Done() || !h2.Done() || !h3.Done() {
			t.Error("handles not done after WaitAll")
		}
		if issued >= completed {
			t.Errorf("no overlap: issue %v vs complete %v", issued, completed)
		}
		for dst := 1; dst <= 3; dst++ {
			if got := r.Get(dst, "m", 0, 1<<16); !bytes.Equal(got, data) {
				t.Errorf("dst %d corrupted", dst)
			}
		}
	})
}

func TestFenceCompletesOutstanding(t *testing.T) {
	_, rt := testRuntime(t, core.MFCG, 9, 1)
	rt.Alloc("m", 4096)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		var hs []*Handle
		for dst := 1; dst < 9; dst++ {
			hs = append(hs, r.NbPut(dst, "m", 0, []byte{byte(dst)}))
		}
		r.Fence()
		for _, h := range hs {
			if !h.Done() {
				t.Error("Fence returned with incomplete handle")
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 4, 2)
	var minAfter, maxBefore sim.Time
	minAfter = 1 << 62
	runAll(t, rt, func(r *Rank) {
		r.Sleep(sim.Time(r.Rank()) * sim.Microsecond)
		before := r.Now()
		if before > maxBefore {
			maxBefore = before
		}
		r.Barrier()
		if r.Now() < minAfter {
			minAfter = r.Now()
		}
	})
	if minAfter < maxBefore {
		t.Errorf("a rank left the barrier at %v before the last arrived at %v", minAfter, maxBefore)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 3, 1)
	count := 0
	runAll(t, rt, func(r *Rank) {
		for k := 0; k < 10; k++ {
			r.Barrier()
		}
		count++
	})
	if count != 3 {
		t.Errorf("%d ranks finished, want 3", count)
	}
}

func TestMallocCollective(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 3, 1)
	runAll(t, rt, func(r *Rank) {
		r.Malloc("dyn", 512)
		r.Put((r.Rank()+1)%3, "dyn", 0, []byte{42})
	})
}

func TestAllocConflictPanics(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	rt.Alloc("a", 100)
	rt.Alloc("a", 100) // idempotent
	defer func() {
		if recover() == nil {
			t.Error("conflicting Alloc did not panic")
		}
	}()
	rt.Alloc("a", 200)
}

func TestAccessOutsideAllocationPanics(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	rt.Alloc("m", 100)
	panicked := false
	_ = rt.Run(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Put(1, "m", 90, make([]byte, 20))
	})
	if !panicked {
		t.Error("out-of-range put did not panic")
	}
}

func TestUnknownAllocationPanics(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("unknown allocation did not panic")
		}
	}()
	rt.Memory(0, "nope")
}

func TestForwardingCountsMatchTopology(t *testing.T) {
	// On MFCG 3x3 with 1 PPN, a put from node 8 to node 0 needs exactly one
	// forward; on FCG none.
	for _, tc := range []struct {
		kind     core.Kind
		forwards uint64
	}{{core.FCG, 0}, {core.MFCG, 1}} {
		_, rt := testRuntime(t, tc.kind, 9, 1)
		rt.Alloc("m", 64)
		runAll(t, rt, func(r *Rank) {
			if r.Rank() == 8 {
				r.Put(0, "m", 0, []byte{1})
			}
		})
		if got := rt.Stats().Forwards; got != tc.forwards {
			t.Errorf("%v: forwards = %d, want %d", tc.kind, got, tc.forwards)
		}
	}
}

func TestCreditExhaustionBlocksThenRecovers(t *testing.T) {
	// Tiny pools: 1 buffer per proc, 1 proc per node. A burst of puts from
	// one node to another must block on credits yet complete correctly.
	eng := sim.New()
	cfg := DefaultConfig(2, 1)
	cfg.BufsPerProc = 1
	cfg.Topology = core.MustNew(core.FCG, 2)
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 1<<20)
	big := make([]byte, 10*cfg.BufSize) // 10+ chunks against 1 credit
	for i := range big {
		big[i] = byte(i * 7)
	}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Put(1, "m", 0, big)
			if got := r.Get(1, "m", 0, len(big)); !bytes.Equal(got, big) {
				t.Error("data corrupted under credit pressure")
			}
		}
	})
	st := rt.Stats()
	if st.CreditWaits == 0 {
		t.Error("no credit waits with a 1-buffer pool and 10 chunks")
	}
	if st.CreditWaited == 0 {
		t.Error("credit wait time not recorded")
	}
}

func TestLDFCompletesAllToAllStormEveryTopology(t *testing.T) {
	// The end-to-end deadlock-freedom claim: a dense all-to-all storm of
	// puts with tiny buffer pools completes on every topology under LDF.
	for _, kind := range core.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			eng := sim.New()
			cfg := DefaultConfig(16, 1)
			cfg.BufsPerProc = 1
			cfg.Topology = core.MustNew(kind, 16)
			rt, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt.Alloc("m", 16*64)
			runAll(t, rt, func(r *Rank) {
				for dst := 0; dst < r.N(); dst++ {
					if dst != r.Rank() {
						r.Put(dst, "m", 64*r.Rank(), []byte{byte(r.Rank())})
					}
				}
			})
		})
	}
}

func TestLDFCompletesStormOnPartialTopologies(t *testing.T) {
	for _, tc := range []struct {
		kind core.Kind
		n    int
	}{{core.MFCG, 7}, {core.MFCG, 13}, {core.CFCG, 11}, {core.CFCG, 29}} {
		eng := sim.New()
		cfg := DefaultConfig(tc.n, 2)
		cfg.BufsPerProc = 1
		cfg.Topology = core.MustNew(tc.kind, tc.n)
		rt, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.Alloc("m", 8)
		if err := rt.Run(func(r *Rank) {
			for k := 0; k < 3; k++ {
				r.FetchAdd((r.Rank()+k+1)%r.N(), "m", 0, 1)
			}
		}); err != nil {
			t.Errorf("%v n=%d: %v", tc.kind, tc.n, err)
		}
	}
}

// routedTopology replaces a topology's forwarding rule with next, for the
// tests that show what a rule other than LDF does to the runtime.
type routedTopology struct {
	core.Topology
	next core.NextHopFunc
}

func (r routedTopology) NextHop(src, dst int) int { return r.next(src, dst) }

func (r routedTopology) Hop(src, dst int, _ func(int) bool) (int, bool) {
	return r.next(src, dst), true
}

func TestMixedOrderForwardingDeadlocksEndToEnd(t *testing.T) {
	// The negative control for LDF: the broken dst-parity routing rule
	// must wedge the runtime, and the sim must report it as a deadlock.
	eng := sim.New()
	topo := core.MustNew(core.MFCG, 9)
	cfg := DefaultConfig(9, 1)
	cfg.BufsPerProc = 1 // tight pools make the cycle bind quickly
	cfg.Topology = routedTopology{topo, core.MixedOrderNextHop(topo)}
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 1<<20)
	payload := make([]byte, 8*cfg.BufSize)
	// Under the dst-parity rule these four flows traverse the cyclic edges
	// H(0->1), V(1->4), H(4->3), V(3->0): each flow's head chunk occupies a
	// buffer whose forward needs the credit the next flow's head is holding.
	flows := map[int]int{0: 4, 1: 3, 3: 1, 4: 0}
	runErr := rt.Run(func(r *Rank) {
		if dst, ok := flows[r.Rank()]; ok {
			r.Put(dst, "m", 0, payload)
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(runErr, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", runErr)
	}
}

// TestStallErrorNamesCreditStarvedEdges: the same mixed-order wedge, kept
// churning by a periodic event so the watchdog (not the engine's deadlock
// detector) trips, must come back from Run as a *StallError that names the
// cycle's credit-starved edges and their empty pools, and still unwraps to
// the *sim.WatchdogError. Each edge holds two parked sends: the origin's
// next chunk and the forward of the flow whose head occupies its buffer.
func TestStallErrorNamesCreditStarvedEdges(t *testing.T) {
	eng := sim.New()
	topo := core.MustNew(core.MFCG, 9)
	cfg := DefaultConfig(9, 1)
	cfg.BufsPerProc = 1
	cfg.Topology = routedTopology{topo, core.MixedOrderNextHop(topo)}
	rt, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Alloc("m", 1<<20)
	payload := make([]byte, 8*cfg.BufSize)
	flows := map[int]int{0: 4, 1: 3, 3: 1, 4: 0}
	var tick func()
	tick = func() { eng.After(sim.Millisecond, tick) }
	eng.At(0, tick)
	sim.NewWatchdog(eng, 0, 0).Start()
	runErr := rt.Run(func(r *Rank) {
		if dst, ok := flows[r.Rank()]; ok {
			r.Put(dst, "m", 0, payload)
		}
	})
	var se *StallError
	if !errors.As(runErr, &se) {
		t.Fatalf("Run = %v, want *StallError", runErr)
	}
	var we *sim.WatchdogError
	if !errors.As(runErr, &we) || we != se.WatchdogError {
		t.Fatalf("StallError does not unwrap to its *sim.WatchdogError: %v", runErr)
	}
	want := []StalledEdge{
		{From: 0, To: 1, Credits: 0, Capacity: 1, Parked: 2},
		{From: 1, To: 4, Credits: 0, Capacity: 1, Parked: 2},
		{From: 3, To: 0, Credits: 0, Capacity: 1, Parked: 2},
		{From: 4, To: 3, Credits: 0, Capacity: 1, Parked: 2},
	}
	if !reflect.DeepEqual(se.Edges, want) {
		t.Errorf("stalled edges = %v, want %v", se.Edges, want)
	}
	if !strings.Contains(se.Error(), "edge 0->1: 2 parked, credits 0/1") {
		t.Errorf("error text does not name the starved edge: %v", se)
	}
}

func TestMasterRSSModel(t *testing.T) {
	// FCG on 8 nodes, 2 PPN: degree 7, so buffers = 7*2*4*16KB.
	_, rt := testRuntime(t, core.FCG, 8, 2)
	cfg := rt.Config()
	wantBuf := int64(7 * 2 * 4 * cfg.BufSize)
	if got := rt.BufferBytes(0); got != wantBuf {
		t.Errorf("BufferBytes = %d, want %d", got, wantBuf)
	}
	wantRSS := cfg.BaseRSSBytes + wantBuf + 7*2*cfg.ConnBytes
	if got := rt.MasterRSS(0); got != wantRSS {
		t.Errorf("MasterRSS = %d, want %d", got, wantRSS)
	}
}

func TestMasterRSSOrderingAcrossTopologies(t *testing.T) {
	// Figure 5's ordering at a fixed node count.
	n := 1024
	var prev int64 = 1 << 62
	for _, kind := range core.Kinds {
		eng := sim.New()
		cfg := DefaultConfig(n, 12)
		cfg.Topology = core.MustNew(kind, n)
		rt, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rss := rt.MasterRSS(0)
		if rss >= prev {
			t.Errorf("%v RSS %d not below previous topology's %d", kind, rss, prev)
		}
		prev = rss
	}
}

func TestHandleOverCompletionPanics(t *testing.T) {
	h := newHandle(1, 0)
	h.completeChunk()
	defer func() {
		if recover() == nil {
			t.Error("over-completion did not panic")
		}
	}()
	h.completeChunk()
}

func TestOpKindStrings(t *testing.T) {
	kinds := []opKind{opPut, opGet, opAcc, opRmw, opLock, opUnlock, opPutV, opGetV}
	want := []string{"put", "get", "acc", "rmw", "lock", "unlock", "putv", "getv"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("opKind %d = %q, want %q", i, k, want[i])
		}
	}
	if opKind(99).String() != "op(99)" {
		t.Errorf("unknown kind string = %q", opKind(99))
	}
}

func TestFloatByteHelpers(t *testing.T) {
	buf := make([]byte, 16)
	PutFloat64(buf, 0, 3.25)
	PutInt64(buf, 8, -7)
	if GetFloat64(buf, 0) != 3.25 || GetInt64(buf, 8) != -7 {
		t.Error("scalar round trip failed")
	}
	vals := []float64{1.5, -2, 0}
	got := BytesToFloat64s(Float64sToBytes(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("slice round trip [%d] = %v", i, got[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("misaligned BytesToFloat64s did not panic")
		}
	}()
	BytesToFloat64s(make([]byte, 7))
}

func TestChunkSegsInvariants(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	segs := []Seg{{0, 5}, {100, cfg.BufSize * 2}, {9000, 1}, {9500, 0}}
	var total, flatPrev int
	n := cfg.chunkSegs(segs, 1, new([]Seg), func(group []Seg, payload, flatOff int) {
		if flatOff != flatPrev {
			t.Errorf("flatOff %d, want %d (contiguous chunks)", flatOff, flatPrev)
		}
		sum := 0
		for _, s := range group {
			sum += s.Len
		}
		if sum != payload {
			t.Errorf("group payload %d != declared %d", sum, payload)
		}
		if wire := headerBytes + len(group)*segDescBytes + payload; wire > cfg.BufSize {
			t.Errorf("chunk wire size %d exceeds buffer %d", wire, cfg.BufSize)
		}
		total += payload
		flatPrev += payload
	})
	if want := 5 + cfg.BufSize*2 + 1; total != want {
		t.Errorf("total payload %d, want %d", total, want)
	}
	if n < 3 {
		t.Errorf("chunks = %d, want >= 3", n)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		eng := sim.New()
		cfg := DefaultConfig(9, 2)
		cfg.Topology = core.MustNew(core.MFCG, 9)
		rt, _ := New(eng, cfg)
		rt.Alloc("m", 4096)
		var last sim.Time
		if err := rt.Run(func(r *Rank) {
			for k := 0; k < 5; k++ {
				r.Put((r.Rank()+3)%r.N(), "m", 8*r.Rank(), []byte{1, 2, 3})
				r.FetchAdd(0, "m", 0, 1)
			}
			r.Barrier()
			last = r.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs ended at %v and %v", a, b)
	}
}
