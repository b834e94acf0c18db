package armci

// Documentation-drift check for docs/SCALING.md, the memory model of record
// for the large-N runtime: the per-node byte-budget table must state the
// actual sizes of the hot structures (checked against unsafe.Sizeof, so a
// field added to nodeState without updating the budget fails here), and the
// knob spellings and the allocation ceiling must appear verbatim.

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"armcivt/internal/sim"
)

func readScalingDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/SCALING.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

func TestScalingDocsByteBudgetMatchesStructs(t *testing.T) {
	doc := readScalingDoc(t)
	for _, row := range []struct {
		name string
		size uintptr
	}{
		{"nodeState", unsafe.Sizeof(nodeState{})},
		{"sim.Queue[*request]", unsafe.Sizeof(sim.Queue[*request]{})},
		{"Stats", unsafe.Sizeof(Stats{})},
		{"egress", unsafe.Sizeof(egress{})},
		{"Rank", unsafe.Sizeof(Rank{})},
		{"rankPool", unsafe.Sizeof(rankPool{})},
		{"Handle", unsafe.Sizeof(Handle{})},
		{"pendingSend", unsafe.Sizeof(pendingSend{})},
		{"request", unsafe.Sizeof(request{})},
		{"dupState", unsafe.Sizeof(dupState{})},
	} {
		want := fmt.Sprintf("| `%s` | %d B |", row.name, row.size)
		if !strings.Contains(doc, want) {
			t.Errorf("docs/SCALING.md byte budget is stale for %s: expected the row %q (actual size %d bytes)",
				row.name, want, row.size)
		}
	}
}

func TestScalingDocsPinTheKnobs(t *testing.T) {
	doc := readScalingDoc(t)
	for _, want := range []string{
		// memscale's scale-point flags.
		"`-scale`", "`-measure`", "`-max-live-mb`",
		// The allocation ceiling TestScaleAllocsCeiling enforces.
		"6 allocs/op",
		// The double-release guard the pooling contract promises.
		"released twice",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/SCALING.md does not state %q", want)
		}
	}
}
