package sim

// Documentation-drift check for docs/SCALING.md's byte budget: the process
// record row and the pending-event row must state the actual sizes of a
// Proc, the queue key and the slab payload (checked against unsafe.Sizeof,
// so a field added to any of them fails here), of a parked key's link and
// the wheel, and of the key-and-payload event appendPending reports.

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

func TestScalingDocsPendingEventBudget(t *testing.T) {
	raw, err := os.ReadFile("../../docs/SCALING.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, want := range []string{
		fmt.Sprintf("| `Proc` | %d B |", unsafe.Sizeof(Proc{})),
		fmt.Sprintf("| pending event: `eventKey` + `payload` | %d B + %d B |",
			unsafe.Sizeof(eventKey{}), unsafe.Sizeof(payload{})),
		fmt.Sprintf("one `event` (%d B)", unsafe.Sizeof(event{})),
		fmt.Sprintf("one `keyLink` (%d B:", unsafe.Sizeof(keyLink{})),
		fmt.Sprintf("one `wheel` (%d %03d B:", unsafe.Sizeof(wheel{})/1000, unsafe.Sizeof(wheel{})%1000),
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/SCALING.md byte budget is stale: expected %q", want)
		}
	}
}
