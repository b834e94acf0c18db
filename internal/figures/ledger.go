package figures

import (
	"fmt"

	"armcivt/internal/armci"
)

// ledger is the outcome book every invariant-checked harness keeps: one row
// per origin rank, written only from that rank's own process (so sharded runs
// never contend), and one check of the paper's two correctness properties —
// per-edge request buffers are conserved, and every forwarded request is
// applied exactly once.
type ledger []ledgerRow

// ledgerRow is one origin's outcomes. Every issued op ends completed or
// failed. partitioned counts failures with no live admissible route between
// origin and target when they surfaced (booked by the chaos harness).
type ledgerRow struct {
	completed, failed, partitioned int
}

func (r *ledgerRow) issued() int { return r.completed + r.failed }

// record books one finished op of origin rank.
func (l ledger) record(rank int, err error) {
	if err == nil {
		l[rank].completed++
	} else {
		l[rank].failed++
	}
}

// total sums every row.
func (l ledger) total() (t ledgerRow) {
	for i := range l {
		r := &l[i]
		t.completed += r.completed
		t.failed += r.failed
		t.partitioned += r.partitioned
	}
	return t
}

// check verifies the invariants every armed run shares. applied(o) returns
// the fewest and the most times any element of origin o's target region was
// applied. Per origin in origins:
//
//	completed <= applied <= completed + failed
//
// The lower bound catches lost operations, the upper one double applies.
// Globally, the credit invariants hold on every edge.
func (l ledger) check(rt *armci.Runtime, origins []int, applied func(o int) (lo, hi float64)) error {
	for _, o := range origins {
		r := &l[o]
		lo, hi := applied(o)
		if lo < float64(r.completed) {
			return fmt.Errorf("rank %d lost operations: %d completed but only %g applied", o, r.completed, lo)
		}
		if hi > float64(r.completed+r.failed) {
			return fmt.Errorf("rank %d over-applied: %g applied exceeds %d completed + %d failed",
				o, hi, r.completed, r.failed)
		}
	}
	return rt.CheckCreditInvariants()
}
