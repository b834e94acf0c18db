package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueue measures raw schedule/dispatch throughput of the event
// heap: a self-rescheduling chain keeps a fixed population of pending events
// alive, the access pattern the armci/fabric layers generate; 65 536 is the
// depth bench/'s sim.event_ns.heap64k driver times. The interesting numbers
// are ns/op and allocs/op: the hand-rolled heap must not allocate per event
// (container/heap's interface boxing did).
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := New()
			fired := 0
			var reschedule func()
			reschedule = func() {
				fired++
				if fired < b.N {
					e.After(Time(fired%7+1), reschedule)
				}
			}
			for i := 0; i < pending; i++ {
				e.After(Time(i%13+1), reschedule)
			}
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkProcessPingPong measures the full scheduling round-trip two
// processes alternating on a queue pay per message: park, event dispatch,
// resume.
func BenchmarkProcessPingPong(b *testing.B) {
	e := New()
	ping := NewQueue[int](e, "ping")
	pong := NewQueue[int](e, "pong")
	n := b.N
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
