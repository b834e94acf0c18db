package figures

import (
	"errors"
	"fmt"
	"slices"

	"armcivt/internal/armci"
)

// ledger is the outcome book every invariant-checked harness keeps: one row
// per origin rank, written only from that rank's own process (so sharded runs
// never contend), and one check of the paper's two correctness properties —
// per-edge request buffers are conserved, and every forwarded request is
// applied exactly once — plus the overload layer's shed and admission books.
type ledger []ledgerRow

// ledgerRow is one origin's outcomes. Every issued op ends completed or
// failed. partitioned counts failures with no live admissible route between
// origin and target when they surfaced (booked by the chaos harness); shed
// counts failures with *armci.OverloadError, by reason in shedReasons order.
type ledgerRow struct {
	completed, failed, partitioned int
	shed                           [3]int
}

// shedReasons are the *armci.OverloadError reasons. An unknown reason panics
// in record: the ledger must learn every reason the runtime sheds for.
var shedReasons = []string{"budget", "deadline", "class"}

func (r *ledgerRow) issued() int { return r.completed + r.failed }
func (r *ledgerRow) sheds() int  { return r.shed[0] + r.shed[1] + r.shed[2] }

// record books one finished op of origin rank.
func (l ledger) record(rank int, err error) {
	row := &l[rank]
	if err == nil {
		row.completed++
		return
	}
	row.failed++
	var oe *armci.OverloadError
	if errors.As(err, &oe) {
		row.shed[slices.Index(shedReasons, oe.Reason)]++
	}
}

// total sums every row.
func (l ledger) total() (t ledgerRow) {
	for i := range l {
		r := &l[i]
		t.completed += r.completed
		t.failed += r.failed
		t.partitioned += r.partitioned
		for k := range t.shed {
			t.shed[k] += r.shed[k]
		}
	}
	return t
}

// check verifies the invariants every armed run shares. applied(o) returns
// the fewest and the most times any element of origin o's target region was
// applied. Per origin in origins:
//
//	completed <= applied <= completed + failed - shed
//
// The lower bound catches lost operations, the upper one double applies and
// shed operations that applied anyway. Globally: unarmed, nothing is shed or
// admitted; the runtime's shed counters equal the sheds the ranks observed,
// reason by reason; with overload protection armed, every op that was not
// shed was admitted or ran on the same-node fast path; and the credit
// invariants hold on every edge.
func (l ledger) check(rt *armci.Runtime, overload bool, origins []int, applied func(o int) (lo, hi float64)) error {
	for _, o := range origins {
		r := &l[o]
		lo, hi := applied(o)
		if lo < float64(r.completed) {
			return fmt.Errorf("rank %d lost operations: %d completed but only %g applied", o, r.completed, lo)
		}
		if hi > float64(r.completed+r.failed-r.sheds()) {
			return fmt.Errorf("rank %d over-applied: %g applied exceeds %d completed + %d failed - %d shed",
				o, hi, r.completed, r.failed, r.sheds())
		}
	}
	t, s := l.total(), rt.Stats()
	if !overload && (t.sheds() != 0 || s.Admitted != 0) {
		return fmt.Errorf("unarmed run shed %d ops and admitted %d", t.sheds(), s.Admitted)
	}
	stats := [4]uint64{s.ShedOps, s.ShedBudget, s.ShedDeadline, s.ShedClass}
	seen := [4]uint64{uint64(t.sheds()), uint64(t.shed[0]), uint64(t.shed[1]), uint64(t.shed[2])}
	if stats != seen {
		return fmt.Errorf("shed ledger mismatch: stats %v != observed %v (total, budget, deadline, class)", stats, seen)
	}
	if want := uint64(t.issued() - t.sheds()); overload && s.Admitted+s.LocalOps != want {
		return fmt.Errorf("admitted %d + local %d != issued %d - shed %d", s.Admitted, s.LocalOps, t.issued(), t.sheds())
	}
	return rt.CheckCreditInvariants()
}
