package ga

import (
	"testing"
	"testing/quick"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/sim"
)

func runtimeFor(t *testing.T, kind core.Kind, nodes, ppn int) *armci.Runtime {
	t.Helper()
	eng := sim.New()
	cfg := armci.DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(kind, nodes)
	rt, err := armci.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestProcGrid(t *testing.T) {
	cases := []struct{ n, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {16, 4, 4},
		{7, 1, 7}, {36, 6, 6}, {24, 4, 6},
	}
	for _, c := range cases {
		pr, pc := ProcGrid(c.n)
		if pr != c.pr || pc != c.pc {
			t.Errorf("ProcGrid(%d) = %dx%d, want %dx%d", c.n, pr, pc, c.pr, c.pc)
		}
		if pr*pc != c.n || pr > pc {
			t.Errorf("ProcGrid(%d) = %dx%d invalid", c.n, pr, pc)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 || m.At(0, 0) != 0 {
		t.Error("At/Set broken")
	}
	m.Fill(2)
	for _, v := range m.Data {
		if v != 2 {
			t.Fatal("Fill broken")
		}
	}
}

func TestOwnerAndDistributionPartition(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 4, 3) // 12 ranks -> 3x4 grid
	a := Create(rt, "A", 100, 90)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		for j := 0; j < 90; j++ {
			counts[a.Owner(i, j)]++
		}
	}
	total := 0
	for rank, c := range counts {
		total += c
		lo, hi := a.Distribution(rank)
		if want := (hi[0] - lo[0]) * (hi[1] - lo[1]); want != c {
			t.Errorf("rank %d: owns %d elements, Distribution says %d", rank, c, want)
		}
	}
	if total != 9000 {
		t.Errorf("ownership covers %d elements, want 9000", total)
	}
}

func TestDistributionWithinBounds(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 4, 1)
	a := Create(rt, "A", 5, 7) // blocks 3x4 over 2x2 grid; edges clamped
	for rank := 0; rank < 4; rank++ {
		lo, hi := a.Distribution(rank)
		if hi[0] > 5 || hi[1] > 7 {
			t.Errorf("rank %d region [%v,%v) exceeds array", rank, lo, hi)
		}
	}
}

func TestPutGetSectionRoundTrip(t *testing.T) {
	rt := runtimeFor(t, core.MFCG, 4, 2)
	a := Create(rt, "A", 32, 48)
	if err := rt.Run(func(r *armci.Rank) {
		if r.Rank() == 0 {
			// A section spanning multiple owners.
			lo, hi := [2]int{3, 5}, [2]int{20, 40}
			m := NewMatrix(17, 35)
			for i := 0; i < m.Rows; i++ {
				for j := 0; j < m.Cols; j++ {
					m.Set(i, j, float64(100*i+j))
				}
			}
			a.Put(r, lo, hi, m)
			got := a.Get(r, lo, hi)
			for i := 0; i < m.Rows; i++ {
				for j := 0; j < m.Cols; j++ {
					if got.At(i, j) != m.At(i, j) {
						t.Fatalf("(%d,%d) = %v, want %v", i, j, got.At(i, j), m.At(i, j))
					}
				}
			}
			// Elements outside the section stay zero.
			outside := a.Get(r, [2]int{0, 0}, [2]int{3, 5})
			for _, v := range outside.Data {
				if v != 0 {
					t.Fatal("Put leaked outside its section")
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAccSumsAcrossRanks(t *testing.T) {
	rt := runtimeFor(t, core.CFCG, 8, 1)
	a := Create(rt, "S", 16, 16)
	if err := rt.Run(func(r *armci.Rank) {
		m := NewMatrix(16, 16)
		m.Fill(1)
		a.Acc(r, [2]int{0, 0}, [2]int{16, 16}, m, float64(r.Rank()+1))
		r.Barrier()
		if r.Rank() == 0 {
			got := a.Get(r, [2]int{0, 0}, [2]int{16, 16})
			want := float64(8 * 9 / 2) // sum of 1..8
			for _, v := range got.Data {
				if v != want {
					t.Fatalf("acc total = %v, want %v", v, want)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessFlushLocalBlock(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 4, 1)
	a := Create(rt, "L", 8, 8)
	if err := rt.Run(func(r *armci.Rank) {
		m := a.Access(r)
		m.Fill(float64(r.Rank()))
		a.Flush(r, m)
		r.Barrier()
		if r.Rank() == 0 {
			lo, hi := a.Distribution(3)
			got := a.Get(r, lo, hi)
			for _, v := range got.Data {
				if v != 3 {
					t.Fatalf("rank 3 block = %v, want 3", v)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterTicketsUnique(t *testing.T) {
	rt := runtimeFor(t, core.MFCG, 9, 1)
	c := NewCounter(rt, "nxtval", 0)
	tickets := map[int64]bool{}
	if err := rt.Run(func(r *armci.Rank) {
		for k := 0; k < 7; k++ {
			v := c.Next(r)
			if tickets[v] {
				t.Errorf("duplicate ticket %d", v)
			}
			tickets[v] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(tickets) != 63 {
		t.Errorf("%d tickets issued, want 63", len(tickets))
	}
	// Final value readable.
	rt2 := runtimeFor(t, core.FCG, 2, 1)
	c2 := NewCounter(rt2, "n2", 0)
	if err := rt2.Run(func(r *armci.Rank) {
		if r.Rank() == 1 {
			c2.Next(r)
			c2.Next(r)
			if v := c2.Value(r); v != 2 {
				t.Errorf("Value = %d, want 2", v)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateCollective(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 3, 1)
	if err := rt.Run(func(r *armci.Rank) {
		a := CreateCollective(r, "coll", 6, 6)
		if r.Rank() == 0 {
			m := NewMatrix(6, 6)
			m.Fill(4)
			a.Put(r, [2]int{0, 0}, [2]int{6, 6}, m)
		}
		r.Barrier()
		got := a.Get(r, [2]int{2, 2}, [2]int{3, 3})
		if got.At(0, 0) != 4 {
			t.Errorf("rank %d read %v", r.Rank(), got.At(0, 0))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionValidation(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 2, 1)
	a := Create(rt, "V", 4, 4)
	for _, fn := range []func(){
		func() { a.Owner(4, 0) },
		func() { a.checkRegion([2]int{-1, 0}, [2]int{2, 2}) },
		func() { a.checkRegion([2]int{0, 0}, [2]int{5, 2}) },
		func() { a.checkRegion([2]int{3, 3}, [2]int{2, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid region did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	rt := runtimeFor(t, core.FCG, 2, 1)
	a := Create(rt, "W", 4, 4)
	panicked := false
	_ = rt.Run(func(r *armci.Rank) {
		if r.Rank() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		a.Put(r, [2]int{0, 0}, [2]int{2, 2}, NewMatrix(3, 3))
	})
	if !panicked {
		t.Error("shape mismatch did not panic")
	}
}

// Property: Put then Get of a random section is the identity, over random
// array shapes and rank counts.
func TestPropertySectionRoundTrip(t *testing.T) {
	f := func(rowsS, colsS uint8, loI, loJ, hiI, hiJ uint8) bool {
		rows := 4 + int(rowsS)%29
		cols := 4 + int(colsS)%29
		rt := runtimeFor(t, core.MFCG, 4, 1)
		a := Create(rt, "P", rows, cols)
		lo := [2]int{int(loI) % rows, int(loJ) % cols}
		hi := [2]int{lo[0] + 1 + int(hiI)%(rows-lo[0]), lo[1] + 1 + int(hiJ)%(cols-lo[1])}
		ok := true
		if err := rt.Run(func(r *armci.Rank) {
			if r.Rank() != 0 {
				return
			}
			m := NewMatrix(hi[0]-lo[0], hi[1]-lo[1])
			for i := range m.Data {
				m.Data[i] = float64(i) * 1.5
			}
			a.Put(r, lo, hi, m)
			got := a.Get(r, lo, hi)
			for i := range m.Data {
				if got.Data[i] != m.Data[i] {
					ok = false
				}
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPutAllocatesOncePerCall: Put encodes every owner's block into one
// buffer per call, so a warm Put over k owner blocks makes one allocation
// whatever k is, and each block still lands where it belongs.
func TestPutAllocatesOncePerCall(t *testing.T) {
	rt := runtimeFor(t, core.MFCG, 16, 1) // 4x4 grid of 4x4 blocks
	a := Create(rt, "A", 16, 16)
	if err := rt.Run(func(r *armci.Rank) {
		if r.Rank() != 0 {
			return
		}
		for _, k := range []int{1, 2, 4, 16} {
			// One block row k blocks wide for k <= 4, the whole array for k = 16.
			hi := [2]int{4, 4 * k}
			if k > 4 {
				hi = [2]int{16, 16}
			}
			m := NewMatrix(hi[0], hi[1])
			for i := range m.Data {
				m.Data[i] = float64(k*1000 + i)
			}
			for i := 0; i < 8; i++ {
				a.Put(r, [2]int{}, hi, m) // warm the pooled handles and records
			}
			if got := testing.AllocsPerRun(50, func() { a.Put(r, [2]int{}, hi, m) }); got != 1 {
				t.Errorf("Put over %d blocks: %v allocations per call, want 1", k, got)
			}
			got := a.Get(r, [2]int{}, hi)
			for i, v := range got.Data {
				if v != m.Data[i] {
					t.Fatalf("Put over %d blocks: element %d reads %v, want %v", k, i, v, m.Data[i])
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
