package armci

import (
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// remoteOpKinds is every one-sided data operation a rank can issue, each as
// one call from rank 0 toward a rank on another node. Lock/Unlock are not
// here: they move no data.
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

// TestEveryRemoteOpKindIsAdmitted: every remote data operation is admitted
// to the network the same way: Stats.Ops counts it once, it never takes the
// same-node path, and it injects at least one request chunk.
func TestEveryRemoteOpKindIsAdmitted(t *testing.T) {
	const ops = 3
	for _, k := range remoteOpKinds {
		t.Run(k.name, func(t *testing.T) {
			s := runFromRankZero(t, func(*Config) {}, func(r *Rank, dst int) {
				for range ops {
					k.issue(r, dst)
				}
			})
			if s.LocalOps != 0 || s.Ops != ops {
				t.Fatalf("issued %d ops, %d local; want %d remote", s.Ops, s.LocalOps, ops)
			}
			if s.Requests < ops {
				t.Errorf("%d ops injected %d request chunks; want at least one each", ops, s.Requests)
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

// zeroByteOpKinds is every data operation that moves bytes, issued from rank
// 0 toward a rank on another node with nothing to move. Each returns the
// handle it waited on (nil for a blocking call) and the bytes a get fetched.
var zeroByteOpKinds = []struct {
	name  string
	issue func(r *Rank, dst int) (*Handle, []byte)
}{
	{"Put", func(r *Rank, dst int) (*Handle, []byte) { r.Put(dst, "a", 8, nil); return nil, nil }},
	{"NbPut", func(r *Rank, dst int) (*Handle, []byte) { return r.NbPut(dst, "a", 8, nil), nil }},
	{"Get", func(r *Rank, dst int) (*Handle, []byte) { return nil, r.Get(dst, "a", 8, 0) }},
	{"NbGet", func(r *Rank, dst int) (*Handle, []byte) { return r.NbGet(dst, "a", 8, 0), nil }},
	{"Acc", func(r *Rank, dst int) (*Handle, []byte) { r.Acc(dst, "a", 8, 1, nil); return nil, nil }},
	{"NbAcc", func(r *Rank, dst int) (*Handle, []byte) { return r.NbAcc(dst, "a", 8, 1, nil), nil }},
	{"PutV", func(r *Rank, dst int) (*Handle, []byte) { r.PutV(dst, "a", zeroSegs, nil); return nil, nil }},
	{"NbPutV", func(r *Rank, dst int) (*Handle, []byte) { return r.NbPutV(dst, "a", zeroSegs, nil), nil }},
	{"GetV", func(r *Rank, dst int) (*Handle, []byte) { return nil, r.GetV(dst, "a", zeroSegs) }},
	{"NbGetV", func(r *Rank, dst int) (*Handle, []byte) { return r.NbGetV(dst, "a", zeroSegs), nil }},
	{"AccV", func(r *Rank, dst int) (*Handle, []byte) { r.AccV(dst, "a", zeroSegs, 1, nil); return nil, nil }},
	{"NbAccV", func(r *Rank, dst int) (*Handle, []byte) { return r.NbAccV(dst, "a", zeroSegs, 1, nil), nil }},
	{"PutS", func(r *Rank, dst int) (*Handle, []byte) { r.PutS(dst, "a", 0, 8, 16, 0, nil); return nil, nil }},
	{"GetS", func(r *Rank, dst int) (*Handle, []byte) { return nil, r.GetS(dst, "a", 0, 8, 16, 0) }},
	{"AccS", func(r *Rank, dst int) (*Handle, []byte) { r.AccS(dst, "a", 0, 8, 16, 0, 1, nil); return nil, nil }},
}

// zeroSegs is a vector whose segments carry no bytes.
var zeroSegs = []Seg{{Off: 0, Len: 0}, {Off: 16, Len: 0}}

// TestZeroByteOpsSendNothing: an operation with no bytes to move follows one
// rule whatever its kind. It counts as an op, sends no request (so it takes
// no credit and waits for no round trip), and its handle is complete the
// moment it is issued.
func TestZeroByteOpsSendNothing(t *testing.T) {
	for _, k := range zeroByteOpKinds {
		t.Run(k.name, func(t *testing.T) {
			s := runFromRankZero(t, func(*Config) {}, func(r *Rank, dst int) {
				start := r.Now()
				h, got := k.issue(r, dst)
				if h != nil && !h.Done() {
					t.Errorf("handle not complete at issue")
				}
				if len(got) != 0 {
					t.Errorf("fetched %d bytes, want none", len(got))
				}
				if r.Now() != start {
					t.Errorf("op took %v of virtual time, want none", r.Now()-start)
				}
				if h != nil {
					r.Wait(h)
				}
			})
			if s.Ops != 1 || s.LocalOps != 0 || s.Requests != 0 {
				t.Errorf("%d ops, %d local, %d requests; want 1, 0, 0", s.Ops, s.LocalOps, s.Requests)
			}
		})
	}
}
