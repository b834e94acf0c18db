package sim

// Documentation-drift check for docs/SCALING.md's byte budget: the process
// record row and the pending-event row must state the actual sizes of a
// Proc, the heap key and the slab payload (checked against unsafe.Sizeof,
// so a field added to any of them fails here), and of the transport event
// the shard outboxes carry.

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
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/SCALING.md byte budget is stale: expected %q", want)
		}
	}
}
