package figures

import (
	"errors"
	"strings"
	"testing"

	"armcivt/internal/core"
)

// TestLedgerCheckCatchesEachBreak hands ledger.check one origin row that
// breaks each shared invariant in turn, against a runtime that never ran (so
// every Stats counter is zero and the credit pools are full).
func TestLedgerCheckCatchesEachBreak(t *testing.T) {
	rt, err := run{spec: core.Spec{Kind: core.FCG}, nodes: 2, ppn: 1}.start("", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	cases := []struct {
		name    string
		row     ledgerRow
		applied float64
		want    string // "" passes
	}{
		{"consistent", ledgerRow{completed: 2, failed: 1}, 3, ""},
		{"lost op", ledgerRow{completed: 2}, 1, "lost operations"},
		{"double apply", ledgerRow{completed: 1}, 2, "over-applied"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := ledger{tc.row}
			err := led.check(rt, []int{0}, func(int) (float64, float64) { return tc.applied, tc.applied })
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("check = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestLedgerRecordBooksOutcomes: record books a nil error as completed and
// any error as failed.
func TestLedgerRecordBooksOutcomes(t *testing.T) {
	led := make(ledger, 2)
	led.record(0, nil)
	led.record(0, errors.New("timed out"))
	led.record(1, errors.New("node crashed"))
	if want := (ledgerRow{completed: 1, failed: 1}); led[0] != want {
		t.Fatalf("row 0 = %+v, want %+v", led[0], want)
	}
	if got, want := led.total(), (ledgerRow{completed: 1, failed: 2}); got != want || got.issued() != 3 {
		t.Fatalf("total = %+v (issued %d), want %+v", got, got.issued(), want)
	}
}
