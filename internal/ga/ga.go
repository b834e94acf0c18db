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
	pc           int // process-grid columns
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
		pc:    pc,
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

// Get fetches the section [lo, hi) into a fresh matrix (see GetInto).
func (a *Array) Get(r *armci.Rank, lo, hi [2]int) *Matrix {
	a.checkRegion(lo, hi)
	out := NewMatrix(hi[0]-lo[0], hi[1]-lo[1])
	a.GetInto(r, lo, hi, out)
	return out
}

// GetInto fetches the section [lo, hi) into out, which must cover it
// (NGA_Get into a caller's buffer), using non-blocking strided gets to every
// overlapping owner. The gets run on the rank's pooled handles, and each
// owner's rows are decoded straight into out.
func (a *Array) GetInto(r *armci.Rank, lo, hi [2]int, out *Matrix) {
	a.checkRegion(lo, hi)
	a.checkShape(lo, hi, out)
	p := armci.Pool(r)
	hs := p.Handles()
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		hs = append(hs, p.NbGetS(owner, a.name, a.localOff(blo[0], blo[1]),
			(bhi[1]-blo[1])*8, a.bcols*8, bhi[0]-blo[0]))
	})
	// The same walk visits the owners in issue order.
	next := 0
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		h := hs[next]
		next++
		r.Wait(h)
		data := h.Data()
		w := bhi[1] - blo[1]
		for i := blo[0]; i < bhi[0]; i++ {
			row := out.Data[(i-lo[0])*out.Cols+(blo[1]-lo[1]):][:w]
			src := data[(i-blo[0])*w*8:]
			for j := range row {
				row[j] = armci.GetFloat64(src, 8*j)
			}
		}
	})
	release(p, hs)
}

// Put stores matrix m into the section [lo, hi). Every owner's rows are
// encoded into one buffer per call, each owner's block a sub-slice of it:
// the owners' blocks partition the section, so the buffer is exactly the
// section's size, and it stays alive until the last put completes.
func (a *Array) Put(r *armci.Rank, lo, hi [2]int, m *Matrix) {
	a.checkRegion(lo, hi)
	a.checkShape(lo, hi, m)
	p := armci.Pool(r)
	hs := p.Handles()
	buf := make([]byte, 8*len(m.Data))
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		n := 8 * (bhi[0] - blo[0]) * (bhi[1] - blo[1])
		data := buf[:n:n]
		buf = buf[n:]
		a.encodeSub(data, lo, m, blo, bhi)
		hs = append(hs, p.NbPutS(owner, a.name, a.localOff(blo[0], blo[1]),
			(bhi[1]-blo[1])*8, a.bcols*8, bhi[0]-blo[0], data))
	})
	waitRelease(r, p, hs)
}

// Acc atomically accumulates alpha * m into the section [lo, hi).
func (a *Array) Acc(r *armci.Rank, lo, hi [2]int, m *Matrix, alpha float64) {
	a.checkRegion(lo, hi)
	a.checkShape(lo, hi, m)
	p := armci.Pool(r)
	hs := p.Handles()
	a.blockSpan(lo, hi, func(owner int, blo, bhi [2]int) {
		// Accumulate row by row on the owner (element-atomic at the CHT).
		for i := blo[0]; i < bhi[0]; i++ {
			row := m.Data[(i-lo[0])*m.Cols+(blo[1]-lo[1]) : (i-lo[0])*m.Cols+(bhi[1]-lo[1])]
			hs = append(hs, p.NbAcc(owner, a.name, a.localOff(i, blo[1]), alpha, row))
		}
	})
	waitRelease(r, p, hs)
}

// waitRelease completes a group of pooled operations in issue order, then
// releases them.
func waitRelease(r *armci.Rank, p armci.Pooled, hs []*armci.Handle) {
	for _, h := range hs {
		r.Wait(h)
	}
	release(p, hs)
}

// release hands a group's handles back in reverse issue order, and the list
// after them. The rank's free list is a stack, so the next group takes the
// same handles in the same order, and a get reuses the result buffer the
// handle in its place already holds.
func release(p armci.Pooled, hs []*armci.Handle) {
	for i := len(hs) - 1; i >= 0; i-- {
		p.Release(hs[i])
	}
	p.KeepHandles(hs)
}

// checkShape validates that m covers the region.
func (a *Array) checkShape(lo, hi [2]int, m *Matrix) {
	if m.Rows != hi[0]-lo[0] || m.Cols != hi[1]-lo[1] {
		panic(fmt.Sprintf("ga: matrix %dx%d does not match region [%v,%v)", m.Rows, m.Cols, lo, hi))
	}
}

// encodeSub writes m's elements for the owner subregion [blo, bhi) into dst,
// row-major, as little-endian float64s.
func (a *Array) encodeSub(dst []byte, lo [2]int, m *Matrix, blo, bhi [2]int) {
	w := bhi[1] - blo[1]
	for i := blo[0]; i < bhi[0]; i++ {
		off := (i-lo[0])*m.Cols + (blo[1] - lo[1])
		for j, v := range m.Data[off : off+w] {
			armci.PutFloat64(dst, 8*((i-blo[0])*w+j), v)
		}
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
	return r.GetInt64At(c.owner, c.name, 0)
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
