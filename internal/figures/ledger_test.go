package figures

import (
	"errors"
	"strings"
	"testing"

	"armcivt/internal/armci"
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
		name     string
		row      ledgerRow
		overload bool
		applied  float64
		want     string // "" passes
	}{
		{"consistent", ledgerRow{completed: 2, failed: 1}, false, 3, ""},
		{"lost op", ledgerRow{completed: 2}, false, 1, "lost operations"},
		{"double apply", ledgerRow{completed: 1}, false, 2, "over-applied"},
		{"shed op applied", ledgerRow{completed: 1, failed: 1, shed: [3]int{1, 0, 0}}, false, 2, "over-applied"},
		{"shed-counter mismatch", ledgerRow{failed: 1, shed: [3]int{0, 1, 0}}, true, 0, "shed ledger mismatch"},
		{"admission mismatch", ledgerRow{completed: 1}, true, 1, "admitted 0 + local 0 != issued 1 - shed 0"},
		{"unarmed shed", ledgerRow{failed: 1, shed: [3]int{0, 0, 1}}, false, 0, "unarmed run shed 1 ops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := ledger{tc.row}
			err := led.check(rt, tc.overload, []int{0}, func(int) (float64, float64) { return tc.applied, tc.applied })
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("check = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestLedgerRecordClassifiesSheds: record books a nil error as completed,
// any error as failed, and an *armci.OverloadError also as a shed under its
// reason.
func TestLedgerRecordClassifiesSheds(t *testing.T) {
	led := make(ledger, 1)
	led.record(0, nil)
	led.record(0, errors.New("timed out"))
	for _, reason := range []string{"budget", "deadline", "deadline", "class"} {
		led.record(0, &armci.OverloadError{Reason: reason})
	}
	want := ledgerRow{completed: 1, failed: 5, shed: [3]int{1, 2, 1}}
	if led[0] != want {
		t.Fatalf("row = %+v, want %+v", led[0], want)
	}
	if got := led.total(); got != want || got.issued() != 6 || got.sheds() != 4 {
		t.Fatalf("total = %+v (issued %d, sheds %d), want %+v", got, got.issued(), got.sheds(), want)
	}
}
