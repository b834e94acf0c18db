package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueue measures raw schedule/dispatch throughput of the event
// queue: a self-rescheduling chain keeps a fixed population of pending events
// alive, the access pattern the armci/fabric layers generate; 65 536 is the
// depth bench/'s sim.event_ns.heap64k driver times. The short cases draw
// delays of 1-13 ns; the wide case draws them log-uniformly from 2^6 to
// 2^26 ns, where most pending events are timers and replies more than
// 100 us ahead; the measured case draws them from the delays a contended,
// fault-armed run pushes (measuredDelay). The interesting numbers are ns/op
// and allocs/op: the queue must not allocate per event.
func BenchmarkEventQueue(b *testing.B) {
	first := func(i int) Time { return Time(i%13 + 1) }
	next := func(i int) Time { return Time(i%7 + 1) }
	for _, pending := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) { benchQueue(b, pending, first, next) })
	}
	b.Run("pending=4096/wide", func(b *testing.B) { benchQueue(b, 4096, wideDelay, wideDelay) })
	b.Run("pending=2048/measured", func(b *testing.B) { benchQueue(b, 2048, measuredDelay, measuredDelay) })
	b.Run("burst=131072", func(b *testing.B) { benchBurst(b, 131072) })
}

// benchBurst fires b.N events in bursts of up to burst, each pushed in key
// order, the shape of a 64k-node job's start: half of a burst lands at the
// instant that pushes it (the spawn switches at t = 0), half one nanosecond
// later, through a bucket (the rank exits one global delay later). The next
// burst is pushed once both halves have fired.
func benchBurst(b *testing.B, burst int) {
	e := New()
	fired, pushed := 0, 0
	fire := func() { fired++ }
	var round func()
	round = func() {
		n := min(burst, b.N-pushed)
		for i := 0; i < n; i++ {
			e.After(Time(i%2), fire)
		}
		pushed += n
		if pushed < b.N {
			e.After(2, round)
		}
	}
	e.At(0, round)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// wideDelay is the i-th delay of a log-uniform spread over [2^6, 2^27) ns.
func wideDelay(i int) Time {
	s := 6 + uint(i)%21
	return Time(1)<<s | Time(uint64(i)*0x9E3779B97F4A7C15>>(64-s))
}

// measuredPush is the distribution of push delays (an event's time past the
// last pop) of the benchmark's chaos_heal workload at seed 1, per mille by
// bits.Len64 of the delay, with the hotspot workload's tail to 2^26 ns
// folded into the largest class: most land 2^6-2^10 ns ahead, 5 % at the
// same instant and 9 % past 2^13 ns.
var measuredPush = [...]struct{ bits, perMille int }{
	{0, 47}, {4, 38}, {5, 33}, {6, 56}, {7, 508}, {8, 89}, {10, 146},
	{14, 17}, {15, 4}, {16, 10}, {17, 24}, {18, 19}, {19, 5}, {20, 2}, {26, 2},
}

// measuredDelay is the i-th delay drawn from measuredPush.
func measuredDelay(i int) Time {
	h := uint64(i) * 0x9E3779B97F4A7C15
	r := int(h >> 32 % 1000)
	for _, c := range measuredPush {
		if r -= c.perMille; r >= 0 {
			continue
		}
		if c.bits == 0 {
			return 0
		}
		s := uint(c.bits - 1)
		return Time(1)<<s | Time(h&(1<<s-1))
	}
	panic("measuredPush does not sum to 1000")
}

// benchQueue keeps pending events queued, the i-th at first(i), each
// rescheduling itself next(fired) later until b.N have fired.
func benchQueue(b *testing.B, pending int, first, next func(i int) Time) {
	e := New()
	fired := 0
	var reschedule func()
	reschedule = func() {
		fired++
		if fired < b.N {
			e.After(next(fired), reschedule)
		}
	}
	for i := 0; i < pending; i++ {
		e.After(first(i), reschedule)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
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
