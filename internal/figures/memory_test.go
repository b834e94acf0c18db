package figures

import (
	"bytes"
	"testing"

	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// memPages reads the armci_mem_pages gauge of one allocation.
func memPages(reg *obs.Registry, alloc string) int {
	return int(reg.Gauge("armci_mem_pages", obs.L("alloc", alloc)).Value())
}

// TestContentionMemoryFootprint gates demand paging on the hot-spot
// workload: rank 0's window holds host bytes only for the pages the
// operations write. A vectored put materializes exactly the pages under the
// slots written (every rank off node 0 writes its own), a fetch-add the one
// page of its counter, and the collective scratch region none.
func TestContentionMemoryFootprint(t *testing.T) {
	const nodes, ppn, pageSize = 64, 4, 4096
	c := ContentionConfig{Kind: core.MFCG, Nodes: nodes, PPN: ppn, Iters: 2}.withDefaults()
	slot := c.VecSegs * c.VecSegLen * 2
	pages := map[int]bool{}
	for r := ppn; r < nodes*ppn; r++ {
		for i := range c.VecSegs {
			off := 8 + r*slot + i*c.VecSegLen*2
			for p := off / pageSize; p <= (off+c.VecSegLen-1)/pageSize; p++ {
				pages[p] = true
			}
		}
	}
	for _, tc := range []struct {
		op   ContentionOp
		want int
	}{
		{OpVectoredPut, len(pages)},
		{OpFetchAdd, 1},
	} {
		reg := obs.NewRegistry()
		c.Op, c.Metrics = tc.op, reg
		if _, err := Contention(c); err != nil {
			t.Fatal(err)
		}
		if got := memPages(reg, "hot"); got != tc.want {
			t.Errorf("%v: hot window holds %d pages, want %d (of %d)", tc.op, got, tc.want, (8+nodes*ppn*slot+pageSize-1)/pageSize)
		}
		if got := memPages(reg, "armci.coll"); got != 0 {
			t.Errorf("%v: collective scratch holds %d pages, want 0", tc.op, got)
		}
	}
}

// TestGetOfUnwrittenMemoryMaterializesNothing: remote and local gets of a
// multi-page allocation nobody wrote return zeros and leave it without a
// single page.
func TestGetOfUnwrittenMemoryMaterializesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := armci.DefaultConfig(4, 2)
	cfg.Metrics = reg
	rt := armci.MustNew(sim.New(), cfg)
	defer rt.Shutdown()
	rt.Alloc("g", 4*4096)
	got := make([][]byte, rt.NRanks())
	if err := rt.Run(func(r *armci.Rank) {
		peer := (r.Rank() + 1) % rt.NRanks() // a node-mate for even ranks, remote for odd
		got[r.Rank()] = r.Get(peer, "g", 4096-100, 5000)
	}); err != nil {
		t.Fatal(err)
	}
	rt.FillMetrics()
	for rank, b := range got {
		if !bytes.Equal(b, make([]byte, 5000)) {
			t.Errorf("rank %d read non-zero bytes from unwritten memory", rank)
		}
	}
	if n := memPages(reg, "g"); n != 0 {
		t.Errorf("gets of unwritten memory materialized %d pages, want 0", n)
	}
}
