// Package ga implements a Global Arrays-style layer on top of the armci
// runtime: dense 2-D float64 arrays block-distributed over the process grid,
// with one-sided section Get/Put/Accumulate lowered onto ARMCI strided
// operations, plus the shared task counter (NWChem's "nxtval") that drives
// dynamic load balancing — and that becomes the hot-spot the paper's DFT
// experiments expose.
package ga

import (
	"fmt"
	"math"

	"armcivt/internal/armci"
)

// Matrix is a simple row-major float64 matrix used for section transfers.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("ga: negative matrix dims")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// ProcGrid factors n ranks into the most square pr x pc grid with pr*pc == n
// (pr <= pc).
func ProcGrid(n int) (pr, pc int) {
	if n < 1 {
		panic("ga: grid needs at least one rank")
	}
	pr = int(math.Sqrt(float64(n)))
	for pr > 1 && n%pr != 0 {
		pr--
	}
	return pr, n / pr
}

// Array is a dense rows x cols float64 global array, block-distributed over
// all ranks arranged as a pr x pc grid. Every rank owns one brows x bcols
// block (edge blocks are zero-padded).
type Array struct {
	rt           *armci.Runtime
	name         string
	rows, cols   int
	pr, pc       int
	brows, bcols int
}

// Create registers a global array in the runtime. Call before Runtime.Run
// (or collectively via CreateCollective).
func Create(rt *armci.Runtime, name string, rows, cols int) *Array {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("ga: array %q needs positive dims, got %dx%d", name, rows, cols))
	}
	pr, pc := ProcGrid(rt.NRanks())
	a := &Array{
		rt: rt, name: name, rows: rows, cols: cols,
		pr: pr, pc: pc,
		brows: (rows + pr - 1) / pr,
		bcols: (cols + pc - 1) / pc,
	}
	rt.Alloc(name, a.brows*a.bcols*8)
	return a
}

// CreateCollective is Create callable from inside rank bodies; it
// synchronizes before returning.
func CreateCollective(r *armci.Rank, name string, rows, cols int) *Array {
	a := Create(r.Runtime(), name, rows, cols)
	r.Barrier()
	return a
}

// Name returns the underlying allocation name.
func (a *Array) Name() string { return a.name }

// Dims returns the global extent.
func (a *Array) Dims() (rows, cols int) { return a.rows, a.cols }

// Grid returns the process-grid shape.
func (a *Array) Grid() (pr, pc int) { return a.pr, a.pc }

// Owner returns the rank owning global element (i, j).
func (a *Array) Owner(i, j int) int {
	a.check(i, j)
	return (i/a.brows)*a.pc + j/a.bcols
}

// Distribution returns the half-open global region [lo, hi) owned by rank
// (clamped to the array bounds; possibly empty at the edges).
func (a *Array) Distribution(rank int) (lo, hi [2]int) {
	bi, bj := rank/a.pc, rank%a.pc
	lo = [2]int{bi * a.brows, bj * a.bcols}
	hi = [2]int{min(lo[0]+a.brows, a.rows), min(lo[1]+a.bcols, a.cols)}
	if hi[0] < lo[0] {
		hi[0] = lo[0]
	}
	if hi[1] < lo[1] {
		hi[1] = lo[1]
	}
	return lo, hi
}

// Access returns the caller's local block as a matrix view sharing the
// underlying global-address-space memory (brows x bcols, including padding).
func (a *Array) Access(r *armci.Rank) *Matrix {
	raw := r.Local(a.name)
	m := &Matrix{Rows: a.brows, Cols: a.bcols, Data: make([]float64, a.brows*a.bcols)}
	for i := range m.Data {
		m.Data[i] = armci.GetFloat64(raw, 8*i)
	}
	return m
}

// Flush writes a matrix previously obtained from Access back into the local
// block.
func (a *Array) Flush(r *armci.Rank, m *Matrix) {
	if m.Rows != a.brows || m.Cols != a.bcols {
		panic("ga: Flush with mismatched block shape")
	}
	raw := r.Local(a.name)
	for i, v := range m.Data {
		armci.PutFloat64(raw, 8*i, v)
	}
}

func (a *Array) check(i, j int) {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("ga: index (%d,%d) outside %dx%d array %q", i, j, a.rows, a.cols, a.name))
	}
}

func (a *Array) checkRegion(lo, hi [2]int) {
	if lo[0] < 0 || lo[1] < 0 || hi[0] > a.rows || hi[1] > a.cols || lo[0] > hi[0] || lo[1] > hi[1] {
		panic(fmt.Sprintf("ga: region [%v,%v) invalid for %dx%d array %q", lo, hi, a.rows, a.cols, a.name))
	}
}

// blockSpan iterates the owners overlapping [lo, hi), invoking fn with the
// owner rank and the overlapping global subregion.
func (a *Array) blockSpan(lo, hi [2]int, fn func(owner int, blo, bhi [2]int)) {
	for bi := lo[0] / a.brows; bi*a.brows < hi[0]; bi++ {
		for bj := lo[1] / a.bcols; bj*a.bcols < hi[1]; bj++ {
			blo := [2]int{max(lo[0], bi*a.brows), max(lo[1], bj*a.bcols)}
			bhi := [2]int{min(hi[0], (bi+1)*a.brows), min(hi[1], (bj+1)*a.bcols)}
			if blo[0] < bhi[0] && blo[1] < bhi[1] {
				fn(bi*a.pc+bj, blo, bhi)
			}
		}
	}
}

// localOff returns the byte offset of global (i, j) inside its owner block.
func (a *Array) localOff(i, j int) int {
	return ((i%a.brows)*a.bcols + j%a.bcols) * 8
}

// Get fetches the section [lo, hi) into a fresh matrix using non-blocking
// strided gets to every overlapping owner.
func (a *Array) Get(r *armci.Rank, lo, hi [2]int) *Matrix {
	a.checkRegion(lo, hi)
	out := NewMatrix(hi[0]-lo[0], hi[1]-lo[1])
	type part struct {
		h        *armci.Handle
		blo, bhi [2]int
	}
	var parts []part
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		h := r.NbGetS(owner, a.name, a.localOff(blo[0], blo[1]),
			(bhi[1]-blo[1])*8, a.bcols*8, bhi[0]-blo[0])
		parts = append(parts, part{h, blo, bhi})
	})
	for _, p := range parts {
		r.Wait(p.h)
		vals := armci.BytesToFloat64s(p.h.Data())
		w := p.bhi[1] - p.blo[1]
		for i := p.blo[0]; i < p.bhi[0]; i++ {
			row := vals[(i-p.blo[0])*w : (i-p.blo[0]+1)*w]
			copy(out.Data[(i-lo[0])*out.Cols+(p.blo[1]-lo[1]):], row)
		}
	}
	return out
}

// Put stores matrix m into the section [lo, hi).
func (a *Array) Put(r *armci.Rank, lo, hi [2]int, m *Matrix) {
	a.checkRegion(lo, hi)
	a.checkShape(lo, hi, m)
	var hs []*armci.Handle
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		data := a.gatherSub(lo, m, blo, bhi)
		hs = append(hs, r.NbPutS(owner, a.name, a.localOff(blo[0], blo[1]),
			(bhi[1]-blo[1])*8, a.bcols*8, bhi[0]-blo[0], data))
	})
	r.WaitAll(hs...)
}

// Acc atomically accumulates alpha * m into the section [lo, hi).
func (a *Array) Acc(r *armci.Rank, lo, hi [2]int, m *Matrix, alpha float64) {
	a.checkRegion(lo, hi)
	a.checkShape(lo, hi, m)
	var hs []*armci.Handle
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		// Accumulate row by row on the owner (element-atomic at the CHT).
		for i := blo[0]; i < bhi[0]; i++ {
			row := m.Data[(i-lo[0])*m.Cols+(blo[1]-lo[1]) : (i-lo[0])*m.Cols+(bhi[1]-lo[1])]
			hs = append(hs, r.NbAcc(owner, a.name, a.localOff(i, blo[1]), alpha, row))
		}
	})
	r.WaitAll(hs...)
}

// checkShape validates that m covers the region.
func (a *Array) checkShape(lo, hi [2]int, m *Matrix) {
	if m.Rows != hi[0]-lo[0] || m.Cols != hi[1]-lo[1] {
		panic(fmt.Sprintf("ga: matrix %dx%d does not match region [%v,%v)", m.Rows, m.Cols, lo, hi))
	}
}

// gatherSub flattens m's elements for the owner subregion [blo, bhi).
func (a *Array) gatherSub(lo [2]int, m *Matrix, blo, bhi [2]int) []byte {
	w := bhi[1] - blo[1]
	vals := make([]float64, 0, (bhi[0]-blo[0])*w)
	for i := blo[0]; i < bhi[0]; i++ {
		off := (i-lo[0])*m.Cols + (blo[1] - lo[1])
		vals = append(vals, m.Data[off:off+w]...)
	}
	return armci.Float64sToBytes(vals)
}

// Zero clears the caller's local block; call from every rank then Barrier
// for a collective zero.
func (a *Array) Zero(r *armci.Rank) {
	raw := r.Local(a.name)
	for i := range raw {
		raw[i] = 0
	}
}

// Counter is a shared atomic task counter (NWChem's nxtval), hosted in a
// designated rank's address space and advanced with ARMCI fetch-&-add. With
// thousands of workers it is precisely the hot-spot object the paper's
// contention experiments model.
type Counter struct {
	rt    *armci.Runtime
	name  string
	owner int
}

// NewCounter registers a counter hosted on owner's node.
func NewCounter(rt *armci.Runtime, name string, owner int) *Counter {
	rt.Alloc(name, 8)
	return &Counter{rt: rt, name: name, owner: owner}
}

// Next atomically claims and returns the next task index.
func (c *Counter) Next(r *armci.Rank) int64 {
	return r.FetchAdd(c.owner, c.name, 0, 1)
}

// Value reads the counter (non-atomic snapshot via get).
func (c *Counter) Value(r *armci.Rank) int64 {
	return armci.GetInt64(r.Get(c.owner, c.name, 0, 8), 0)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
