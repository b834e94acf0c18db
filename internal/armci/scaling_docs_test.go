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
		{"nodePage", unsafe.Sizeof(nodePage{})},
		{"nodeState", unsafe.Sizeof(nodeState{})},
		{"sim.Queue[*request]", unsafe.Sizeof(sim.Queue[*request]{})},
		{"Stats", unsafe.Sizeof(Stats{})},
		{"egress", unsafe.Sizeof(egress{})},
		{"memberView", unsafe.Sizeof(memberView{})},
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

// TestProtocolRecordSizesArePinned holds the records an operation keeps live
// while its chunks are in flight at their measured sizes (the fabric's msg
// is pinned beside them in internal/fabric). app_dft's end-of-iteration read
// puts every rank's gets in flight at once, about 18 400 chunks on its
// 1 536 ranks, so each byte of a request record or handle is about 20 KB of
// live heap per runtime, and the collector's heap goal is twice the live
// heap. At the earlier layouts (request 304 B, Handle 184 B, msg 112 B) an
// FCG runtime's live heap peaked at 20.4 MB during that read; at these
// (request 200 B, Handle 144 B, msg 96 B) it peaks at 17.4 MB, and app_dft's
// peak_rss_mb fell from 50.2 to 45.8 MiB (medians of ten alternating pairs,
// go1.24.0, 2 cores; docs/SCALING.md, "What sets app_dft's peak RSS").
// pendingSend, the parked-send record, is pinned at its size too. Growing
// any of them needs a fresh app_dft peak_rss_mb measurement.
func TestProtocolRecordSizesArePinned(t *testing.T) {
	for _, row := range []struct {
		name       string
		size, want uintptr
	}{
		{"request", unsafe.Sizeof(request{}), 200},
		{"Handle", unsafe.Sizeof(Handle{}), 144},
		{"pendingSend", unsafe.Sizeof(pendingSend{}), 96},
	} {
		if row.size != row.want {
			t.Errorf("%s is %d B, pinned at %d B: re-measure app_dft peak_rss_mb before moving it", row.name, row.size, row.want)
		}
	}
}

func TestScalingDocsPinTheKnobs(t *testing.T) {
	doc := readScalingDoc(t)
	for _, want := range []string{
		// The live-footprint gate and its ceilings.
		"`TestScaleFootprint`", "12 MB", "20 MB",
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
