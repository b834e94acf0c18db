package armci

import (
	"math"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

func TestValueHelpers(t *testing.T) {
	_, rt := testRuntime(t, core.MFCG, 4, 1)
	rt.Alloc("v", 64)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		r.PutInt64At(3, "v", 0, -42)
		if got := r.GetInt64At(3, "v", 0); got != -42 {
			t.Errorf("int64 round trip = %d", got)
		}
		r.PutFloat64At(3, "v", 8, math.Pi)
		if got := r.GetFloat64At(3, "v", 8); got != math.Pi {
			t.Errorf("float64 round trip = %v", got)
		}
	})
}

func TestSwapAtomicExchange(t *testing.T) {
	for _, kind := range []core.Kind{core.FCG, core.CFCG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 8, 1)
			rt.Alloc("cell", 8)
			// Every rank swaps in its own id+1; the multiset of returned
			// values must be {0} plus all-but-one of the ids.
			seen := map[int64]int{}
			runAll(t, rt, func(r *Rank) {
				old := r.Swap(0, "cell", 0, int64(r.Rank()+1))
				seen[old]++
			})
			if seen[0] != 1 {
				t.Errorf("initial value seen %d times", seen[0])
			}
			total := 0
			for v, n := range seen {
				total += n
				if v < 0 || v > 8 || n != 1 {
					t.Errorf("value %d returned %d times", v, n)
				}
			}
			if total != 8 {
				t.Errorf("%d swaps returned", total)
			}
		})
	}
}

func TestSwapLocalFastPath(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 2)
	rt.Alloc("cell", 8)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.PutInt64At(1, "cell", 0, 5) // rank 1 is on node 0
			if old := r.Swap(1, "cell", 0, 9); old != 5 {
				t.Errorf("local swap old = %d", old)
			}
			if got := r.GetInt64At(1, "cell", 0); got != 9 {
				t.Errorf("after swap = %d", got)
			}
		}
	})
	if rt.Stats().Requests != 0 {
		t.Error("local swap generated network requests")
	}
}

func TestAccVVectoredAccumulate(t *testing.T) {
	_, rt := testRuntime(t, core.MFCG, 9, 1)
	rt.Alloc("acc", 1024)
	segs := []Seg{{Off: 0, Len: 16}, {Off: 512, Len: 8}}
	runAll(t, rt, func(r *Rank) {
		r.AccV(8, "acc", segs, 2.0, []float64{1, 2, 3})
		r.Barrier()
		if r.Rank() == 0 {
			n := float64(r.N())
			if got := r.GetFloat64At(8, "acc", 0); got != 2*n {
				t.Errorf("seg0[0] = %v, want %v", got, 2*n)
			}
			if got := r.GetFloat64At(8, "acc", 8); got != 4*n {
				t.Errorf("seg0[1] = %v, want %v", got, 4*n)
			}
			if got := r.GetFloat64At(8, "acc", 512); got != 6*n {
				t.Errorf("seg1[0] = %v, want %v", got, 6*n)
			}
			if got := r.GetFloat64At(8, "acc", 16); got != 0 {
				t.Errorf("untouched byte accumulated: %v", got)
			}
		}
	})
}

func TestAccVChunkingAlignment(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	cfg := rt.Config()
	nvals := cfg.BufSize/8 + 37 // forces multiple chunks
	rt.Alloc("acc", 8*nvals)
	vals := make([]float64, nvals)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	segs := []Seg{{Off: 0, Len: 8 * nvals}}
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.AccV(1, "acc", segs, 1.0, vals)
			for i := 0; i < nvals; i += nvals / 7 {
				if got := r.GetFloat64At(1, "acc", 8*i); got != vals[i] {
					t.Fatalf("element %d = %v, want %v", i, got, vals[i])
				}
			}
		}
	})
}

func TestAccVRejectsMisaligned(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	rt.Alloc("acc", 64)
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
		r.AccV(1, "acc", []Seg{{Off: 4, Len: 8}}, 1.0, []float64{1})
	})
	if !panicked {
		t.Error("misaligned AccV accepted")
	}
}

func TestAccSStrided(t *testing.T) {
	_, rt := testRuntime(t, core.CFCG, 8, 1)
	rt.Alloc("m", 4096)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			// 3 rows of 2 float64s, rows 64 bytes apart.
			r.AccS(5, "m", 0, 16, 64, 3, 1.0, []float64{1, 2, 3, 4, 5, 6})
			if got := r.GetFloat64At(5, "m", 64); got != 3 {
				t.Errorf("row1[0] = %v, want 3", got)
			}
			if got := r.GetFloat64At(5, "m", 128+8); got != 6 {
				t.Errorf("row2[1] = %v, want 6", got)
			}
		}
	})
}

func TestNotifyWaitOrdering(t *testing.T) {
	for _, kind := range []core.Kind{core.FCG, core.MFCG} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			_, rt := testRuntime(t, kind, 4, 1)
			rt.Alloc("data", 64)
			var consumerSaw []byte
			runAll(t, rt, func(r *Rank) {
				switch r.Rank() {
				case 0: // producer
					for i := 1; i <= 3; i++ {
						r.Sleep(10 * sim.Microsecond)
						r.Put(3, "data", 0, []byte{byte(i)})
						r.Notify(3)
					}
				case 3: // consumer
					for i := 1; i <= 3; i++ {
						r.WaitNotify(0, int64(i))
						consumerSaw = append(consumerSaw, r.Local("data")[0])
					}
				}
			})
			// Data-then-notify: the consumer must never see a stale value.
			for i, v := range consumerSaw {
				if int(v) < i+1 {
					t.Errorf("%v: after notify %d consumer saw %d", kind, i+1, v)
				}
			}
			if rt.Notifications(3, 0) != 3 {
				t.Errorf("notification count = %d", rt.Notifications(3, 0))
			}
		})
	}
}

func TestNotifySameNode(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 2)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Notify(1) // same node
		}
		if r.Rank() == 1 {
			r.WaitNotify(0, 1)
		}
	})
}

func TestWaitNotifyAlreadySatisfied(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Notify(1)
			r.Notify(1)
		}
		if r.Rank() == 1 {
			r.Sleep(sim.Millisecond) // notifications land first
			t0 := r.Now()
			r.WaitNotify(0, 2)
			if r.Now() != t0 {
				t.Error("satisfied WaitNotify blocked")
			}
		}
	})
}

func TestNotifyPanicsOutOfRange(t *testing.T) {
	_, rt := testRuntime(t, core.FCG, 2, 1)
	panicked := 0
	_ = rt.Run(func(r *Rank) {
		if r.Rank() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() != nil {
					panicked++
				}
			}()
			r.Notify(99)
		}()
		func() {
			defer func() {
				if recover() != nil {
					panicked++
				}
			}()
			r.WaitNotify(-1, 1)
		}()
	})
	if panicked != 2 {
		t.Errorf("panicked = %d, want 2", panicked)
	}
}

func TestChunkSegsAlignedNeverSplitsElements(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	segs := []Seg{{Off: 0, Len: 3 * cfg.BufSize / 2 &^ 7}}
	cfg.chunkSegs(segs, 8, new([]Seg), func(group []Seg, payload, flatOff int) {
		if payload%8 != 0 || flatOff%8 != 0 {
			t.Errorf("chunk payload %d / flatOff %d not element-aligned", payload, flatOff)
		}
		for _, s := range group {
			if s.Len%8 != 0 {
				t.Errorf("segment length %d not aligned", s.Len)
			}
		}
	})
}
