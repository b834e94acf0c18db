package armci

import (
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// remoteOpKinds is every one-sided data operation a rank can issue, each as
// one call from rank 0 toward a rank on another node. Lock/Unlock are not
// here: they are exempt from admission (see OverloadConfig).
var remoteOpKinds = []struct {
	name  string
	issue func(r *Rank, dst int)
}{
	{"Put", func(r *Rank, dst int) { r.Put(dst, "a", 0, []byte{1, 2, 3, 4}) }},
	{"NbPut", func(r *Rank, dst int) { r.Wait(r.NbPut(dst, "a", 0, []byte{1, 2, 3, 4})) }},
	{"Get", func(r *Rank, dst int) { r.Get(dst, "a", 0, 8) }},
	{"NbGet", func(r *Rank, dst int) { r.Wait(r.NbGet(dst, "a", 0, 8)) }},
	{"Acc", func(r *Rank, dst int) { r.Acc(dst, "a", 0, 1, []float64{1}) }},
	{"NbAcc", func(r *Rank, dst int) { r.Wait(r.NbAcc(dst, "a", 0, 1, []float64{1})) }},
	{"AccV", func(r *Rank, dst int) { r.AccV(dst, "a", opSegs, 1, []float64{1, 2}) }},
	{"NbAccV", func(r *Rank, dst int) { r.Wait(r.NbAccV(dst, "a", opSegs, 1, []float64{1, 2})) }},
	{"PutV", func(r *Rank, dst int) { r.PutV(dst, "a", opSegs, make([]byte, 16)) }},
	{"NbPutV", func(r *Rank, dst int) { r.Wait(r.NbPutV(dst, "a", opSegs, make([]byte, 16))) }},
	{"GetV", func(r *Rank, dst int) { r.GetV(dst, "a", opSegs) }},
	{"NbGetV", func(r *Rank, dst int) { r.Wait(r.NbGetV(dst, "a", opSegs)) }},
	{"PutS", func(r *Rank, dst int) { r.PutS(dst, "a", 0, 8, 16, 2, make([]byte, 16)) }},
	{"NbPutS", func(r *Rank, dst int) { r.Wait(r.NbPutS(dst, "a", 0, 8, 16, 2, make([]byte, 16))) }},
	{"GetS", func(r *Rank, dst int) { r.GetS(dst, "a", 0, 8, 16, 2) }},
	{"NbGetS", func(r *Rank, dst int) { r.Wait(r.NbGetS(dst, "a", 0, 8, 16, 2)) }},
	{"AccS", func(r *Rank, dst int) { r.AccS(dst, "a", 0, 8, 16, 2, 1, []float64{1, 2}) }},
	{"FetchAdd", func(r *Rank, dst int) { r.FetchAdd(dst, "a", 64, 1) }},
	{"NbFetchAdd", func(r *Rank, dst int) { r.Wait(r.NbFetchAdd(dst, "a", 64, 1)) }},
	{"Swap", func(r *Rank, dst int) { r.Swap(dst, "a", 64, 7) }},
}

// opSegs is the two-segment, 8-byte-aligned vector the vectored kinds use.
var opSegs = []Seg{{Off: 0, Len: 8}, {Off: 16, Len: 8}}

// runFromRankZero runs body on rank 0 of a 4x2 FCG runtime configured by
// tweak, with every other rank idle, and returns the merged counters.
func runFromRankZero(t *testing.T, tweak func(*Config), body func(r *Rank, dst int)) Stats {
	t.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.Topology = core.MustNew(core.FCG, 4)
	tweak(&cfg)
	rt := MustNew(sim.New(), cfg)
	rt.Alloc("a", 128)
	if err := rt.Run(func(r *Rank) {
		if r.Rank() == 0 {
			body(r, rt.NRanks()-1) // the last rank sits on the last node
		}
	}); err != nil {
		t.Fatal(err)
	}
	return rt.Stats()
}

// TestEveryRemoteOpKindIsAdmitted: with overload protection armed, every
// remote data operation passes admission control, so Stats.Admitted counts
// each op issued. An op kind that sends its requests directly bypasses the
// pacer and the shed ledger, and reads short here.
func TestEveryRemoteOpKindIsAdmitted(t *testing.T) {
	const ops = 3
	for _, k := range remoteOpKinds {
		t.Run(k.name, func(t *testing.T) {
			s := runFromRankZero(t, func(c *Config) { c.Overload.Enabled = true }, func(r *Rank, dst int) {
				for range ops {
					k.issue(r, dst)
				}
			})
			if s.LocalOps != 0 || s.Ops != ops {
				t.Fatalf("issued %d ops, %d local; want %d remote", s.Ops, s.LocalOps, ops)
			}
			if s.Admitted != ops || s.ShedOps != 0 {
				t.Errorf("Admitted = %d, ShedOps = %d; want %d admitted, none shed", s.Admitted, s.ShedOps, ops)
			}
		})
	}
}

// TestEveryBatchableOpKindAggregates: with aggregation armed, a window of
// small nonblocking same-target operations of one batchable kind coalesces
// into batch packets at the origin.
func TestEveryBatchableOpKindAggregates(t *testing.T) {
	const window = 8
	for _, k := range []struct {
		name  string
		issue func(r *Rank, dst int) *Handle
	}{
		{"NbPut", func(r *Rank, dst int) *Handle { return r.NbPut(dst, "a", 0, []byte{1, 2, 3, 4}) }},
		{"NbAcc", func(r *Rank, dst int) *Handle { return r.NbAcc(dst, "a", 0, 1, []float64{1}) }},
		{"NbAccV", func(r *Rank, dst int) *Handle { return r.NbAccV(dst, "a", opSegs, 1, []float64{1, 2}) }},
		{"NbPutV", func(r *Rank, dst int) *Handle { return r.NbPutV(dst, "a", opSegs, make([]byte, 16)) }},
		{"NbPutS", func(r *Rank, dst int) *Handle { return r.NbPutS(dst, "a", 0, 8, 16, 2, make([]byte, 16)) }},
		{"NbFetchAdd", func(r *Rank, dst int) *Handle { return r.NbFetchAdd(dst, "a", 64, 1) }},
	} {
		t.Run(k.name, func(t *testing.T) {
			s := runFromRankZero(t, func(c *Config) { c.Agg.Enabled = true }, func(r *Rank, dst int) {
				hs := make([]*Handle, window)
				for i := range hs {
					hs[i] = k.issue(r, dst)
				}
				r.WaitAll(hs...)
			})
			if s.AggBatches == 0 || s.AggBatchedOps < window {
				t.Errorf("%d batches carrying %d ops from a window of %d; want the window batched",
					s.AggBatches, s.AggBatchedOps, window)
			}
		})
	}
}

// TestEmptyAccSkipsAdmission: an accumulate with no values has no request
// to admit; it completes at once, is not counted as admitted, and does not
// reach the admission check that reads an operation's first request.
func TestEmptyAccSkipsAdmission(t *testing.T) {
	s := runFromRankZero(t, func(c *Config) { c.Overload.Enabled = true }, func(r *Rank, dst int) {
		r.Acc(dst, "a", 0, 1, nil)
		r.Wait(r.NbAcc(dst, "a", 0, 1, nil))
	})
	if s.Ops != 2 || s.Admitted != 0 || s.Requests != 0 {
		t.Errorf("empty accumulates: %d ops, %d admitted, %d requests; want 2, 0, 0", s.Ops, s.Admitted, s.Requests)
	}
}
