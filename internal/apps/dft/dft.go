// Package dft implements a proxy for NWChem's DFT module on a small molecule
// (the paper's SiOSi3 input): an SCF loop whose Fock-matrix construction is
// dynamically load-balanced through a shared fetch-&-add task counter
// (nxtval) and accumulates results into a small, concentrated global array.
//
// With a small molecule on many thousands of cores, both the counter and the
// few Fock-block owners become hot-spots — the regime where Figure 9(a) of
// the paper shows MFCG cutting execution time by up to 48% while Hypercube's
// extra forwarding makes things worse than FCG.
package dft

import (
	"fmt"
	"math"

	"armcivt/internal/armci"
	"armcivt/internal/ga"
	"armcivt/internal/sim"
)

// Config sizes one DFT proxy run.
type Config struct {
	// N is the basis dimension (default 96): density and Fock matrices are
	// N x N. Small by design — that is what concentrates the hot-spot.
	N int
	// BlockSize tiles the task space (default 16): tasks are block pairs.
	BlockSize int
	// SCFIters is the number of SCF iterations (default 3).
	SCFIters int
	// TaskFlop is the base per-task integral cost (default 300us: tasks
	// are long relative to one hot operation, so the hot node is busy but
	// not saturated — the regime the paper's DFT runs sit in).
	TaskFlop sim.Time
	// CounterBatch is how many tasks one fetch-&-add claims (default 4),
	// the standard nxtval chunking that keeps the counter sub-saturated.
	CounterBatch int
	// HotBlocks concentrates Fock accumulates onto the top-left
	// HotBlocks x HotBlocks blocks (default 2): a small molecule's Fock
	// contributions land on a handful of owners, the hot-spot of SiOSi3.
	HotBlocks int
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 96
	}
	if c.BlockSize == 0 {
		c.BlockSize = 16
	}
	if c.SCFIters == 0 {
		c.SCFIters = 3
	}
	if c.TaskFlop == 0 {
		c.TaskFlop = 300 * sim.Microsecond
	}
	if c.CounterBatch == 0 {
		c.CounterBatch = 4
	}
	if c.HotBlocks == 0 {
		c.HotBlocks = 2
	}
	return c
}

// Result reports one run.
type Result struct {
	Procs   int
	Seconds float64
	Energy  float64 // deterministic pseudo-energy, topology-independent
	Tasks   int64   // tasks executed by this rank
}

// State carries the global objects between Setup and Run.
type State struct {
	cfg     Config
	density *ga.Array
	fock    *ga.Array
	counter *ga.Counter
}

// Setup registers the global arrays and counter; call before Runtime.Run.
func Setup(rt *armci.Runtime, cfg Config) *State {
	cfg = cfg.withDefaults()
	return &State{
		cfg:     cfg,
		density: ga.Create(rt, "dft.density", cfg.N, cfg.N),
		fock:    ga.Create(rt, "dft.fock", cfg.N, cfg.N),
		counter: ga.NewCounter(rt, "dft.nxtval", 0),
	}
}

// Run executes the SCF loop on one rank; every rank must call it.
func Run(r *armci.Rank, st *State) Result {
	cfg := st.cfg
	nb := (cfg.N + cfg.BlockSize - 1) / cfg.BlockSize
	tasksPerIter := int64(nb * nb)

	// Initialize the density matrix once.
	if r.Rank() == 0 {
		m := ga.NewMatrix(cfg.N, cfg.N)
		for i := 0; i < cfg.N; i++ {
			for j := 0; j < cfg.N; j++ {
				m.Set(i, j, 1/(1+math.Abs(float64(i-j))))
			}
		}
		st.density.Put(r, [2]int{0, 0}, [2]int{cfg.N, cfg.N}, m)
	}
	r.Barrier()

	start := r.Now()
	var myTasks int64
	energy := 0.0
	// d and f are this rank's density-block and Fock-contribution buffers
	// and diag the Fock block each iteration reads back, reused from task to
	// task and iteration to iteration (as NWChem reuses MA_push_get
	// scratch): GetInto and the contribution loop overwrite every element,
	// so only a block of a new shape allocates.
	var d, f, diag *ga.Matrix
	dn := min(8, cfg.N)

	// Each SCF iteration consumes a disjoint window of counter values
	// (in task units). The window is padded by one batch per worker
	// because every worker's final (failing) claim also consumes a
	// ticket — the same overshoot real nxtval-based codes account for.
	// Counter tickets denote task batches: one fetch-&-add claims
	// CounterBatch consecutive tasks.
	batch := int64(cfg.CounterBatch)
	batches := (tasksPerIter + batch - 1) / batch
	window := batches + int64(r.N()) // 1 overshoot ticket per worker
	for iter := 0; iter < cfg.SCFIters; iter++ {
		base := int64(iter) * window
		for {
			// Claim a contiguous batch of task indices.
			t0 := (st.counter.Next(r) - base) * batch
			if t0 >= tasksPerIter {
				break
			}
			for t := t0; t < t0+batch && t < tasksPerIter; t++ {
				d, f = st.task(r, int(t), nb, d, f)
				myTasks++
			}
		}
		// End of iteration: synchronize and fold the Fock trace into the
		// pseudo-energy (read by everyone from the distributed array).
		r.Barrier()
		diag = reshape(diag, dn, dn)
		st.fock.GetInto(r, [2]int{0, 0}, [2]int{dn, dn}, diag)
		tr := 0.0
		for i := 0; i < diag.Rows; i++ {
			tr += diag.At(i, i)
		}
		energy += tr / float64(iter+1)
		r.Barrier()
	}
	r.Barrier()
	return Result{
		Procs:   r.N(),
		Seconds: (r.Now() - start).Seconds(),
		Energy:  energy,
		Tasks:   myTasks,
	}
}

// task runs task t: fetch its density block into d, integrate, and
// accumulate the contribution, built in f, onto the concentrated hot Fock
// blocks. It returns d and f, reallocated when the block's shape changed.
func (st *State) task(r *armci.Rank, t, nb int, d, f *ga.Matrix) (*ga.Matrix, *ga.Matrix) {
	cfg := st.cfg
	bi, bj := t/nb, t%nb
	lo := [2]int{bi * cfg.BlockSize, bj * cfg.BlockSize}
	hi := [2]int{min(lo[0]+cfg.BlockSize, cfg.N), min(lo[1]+cfg.BlockSize, cfg.N)}
	d = reshape(d, hi[0]-lo[0], hi[1]-lo[1])
	st.density.GetInto(r, lo, hi, d)
	r.Sleep(cfg.TaskFlop + sim.Time((t*7919)%23)*sim.Microsecond/4)
	hbi, hbj := bi%cfg.HotBlocks, bj%cfg.HotBlocks
	hlo := [2]int{hbi * cfg.BlockSize, hbj * cfg.BlockSize}
	hhi := [2]int{min(hlo[0]+cfg.BlockSize, cfg.N), min(hlo[1]+cfg.BlockSize, cfg.N)}
	f = reshape(f, hhi[0]-hlo[0], hhi[1]-hlo[1])
	for i := range f.Data {
		f.Data[i] = 0.5 * d.Data[i%len(d.Data)]
	}
	st.fock.Acc(r, hlo, hhi, f, 1.0)
	return d, f
}

// reshape returns m when it is rows x cols, otherwise a new zeroed matrix of
// that shape.
func reshape(m *ga.Matrix, rows, cols int) *ga.Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	return ga.NewMatrix(rows, cols)
}

// Verify checks internal consistency.
func (res Result) Verify() error {
	if res.Seconds <= 0 {
		return fmt.Errorf("dft: non-positive time %v", res.Seconds)
	}
	if math.IsNaN(res.Energy) || res.Energy == 0 {
		return fmt.Errorf("dft: bad energy %v", res.Energy)
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
