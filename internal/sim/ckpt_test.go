package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ckptPingWorkload is shardPingWorkload with checkpoints armed: it records
// every (at, index, section) the callback observes alongside the workload's
// own event logs. The capture sequence and every digest must be bit-identical
// at every shard count — that is the checkpoint extension of the kernel's
// determinism contract.
func ckptPingWorkload(t *testing.T, shards int, every Time) ([][]string, []string, Time) {
	t.Helper()
	const (
		owners    = 8
		lookahead = Time(100)
		rounds    = 12
	)
	eng := New()
	eng.ConfigureShards(shards, owners, func(pos int) int { return pos * shards / owners }, lookahead)

	var captures []string
	eng.ConfigureCheckpoints(every, func(at Time, index int64) {
		captures = append(captures, fmt.Sprintf("%d@%d:%x", index, at, eng.CheckpointSection()))
	})

	logs := make([][]string, owners)
	logAt := func(owner int, format string, args ...any) {
		logs[owner] = append(logs[owner], fmt.Sprintf(format, args...))
	}

	var hop func(from, depth int)
	hop = func(from, depth int) {
		if depth >= rounds {
			return
		}
		to := (from + 1) % owners
		eng.AtFrom(from, to, eng.NowOn(from)+lookahead+Time(depth%3), func() {
			logAt(to, "hop d=%d t=%v from=%d", depth, eng.NowOn(to), from)
			hop(to, depth+1)
		})
	}

	arrivals := 0
	for o := 0; o < owners; o++ {
		o := o
		eng.SpawnOn(o, fmt.Sprintf("proc%d", o), func(p *Proc) {
			logAt(o, "start t=%v", p.Now())
			hop(o, 0)
			p.Sleep(Time(10 * (o + 1)))
			eng.AtGlobal(o, func() {
				arrivals++
				logAt(o, "arrived t=%v n=%d", eng.Now(), arrivals)
			})
			p.Sleep(Time(500))
			logAt(o, "end t=%v", p.Now())
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	eng.Shutdown()
	return logs, captures, eng.Now()
}

// The headline kernel property: arming checkpoints changes nothing about the
// run, and the captured (index, at, digest) stream is identical at every
// shard count.
func TestCheckpointCapturesBitIdenticalAcrossShards(t *testing.T) {
	for _, every := range []Time{64, 100, 333} {
		baseLogs, baseCaps, baseEnd := ckptPingWorkload(t, 1, every)
		if len(baseCaps) == 0 {
			t.Fatalf("every=%d: no captures fired", every)
		}
		for _, shards := range []int{2, 3, 8} {
			logs, caps, end := ckptPingWorkload(t, shards, every)
			if end != baseEnd {
				t.Errorf("every=%d shards=%d: final clock %v, serial %v", every, shards, end, baseEnd)
			}
			if !reflect.DeepEqual(logs, baseLogs) {
				t.Errorf("every=%d shards=%d: event logs diverge from serial", every, shards)
			}
			if !reflect.DeepEqual(caps, baseCaps) {
				t.Errorf("every=%d shards=%d: capture stream diverges from serial\nserial:  %v\nsharded: %v",
					every, shards, caps, baseCaps)
			}
		}
	}
}

// Arming checkpoints must not perturb the workload: an armed serial run's
// event logs equal the unarmed baseline from shardPingWorkload.
func TestArmedRunMatchesUnarmed(t *testing.T) {
	unarmed, unarmedEnd := shardPingWorkload(t, 1)
	armed, _, armedEnd := ckptPingWorkload(t, 1, 100)
	if armedEnd != unarmedEnd || !reflect.DeepEqual(armed, unarmed) {
		t.Fatal("arming checkpoints perturbed the run")
	}
}

// Boundary semantics: events at exactly k*every execute before the capture at
// k*every; a gap spanning several boundaries fires once at the latest.
func TestCheckpointBoundarySemantics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng := New()
		eng.ConfigureShards(shards, 2, func(pos int) int { return pos % shards }, 10)
		var trace []string
		eng.ConfigureCheckpoints(100, func(at Time, index int64) {
			trace = append(trace, fmt.Sprintf("ck %d@%d", index, at))
		})
		for _, at := range []Time{100, 150, 500} {
			at := at
			eng.AtOn(0, at, func() { trace = append(trace, fmt.Sprintf("ev@%d", at)) })
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		eng.Shutdown()
		// The event at exactly 100 precedes capture 1; the 150→500 gap fires
		// nothing (500's boundary is index 4, fired only once 500 executes and
		// the queue drains — no later event, so no fire past it either).
		want := []string{"ev@100", "ck 1@100", "ev@150", "ck 4@400", "ev@500"}
		if !reflect.DeepEqual(trace, want) {
			t.Fatalf("shards=%d: trace %v, want %v", shards, trace, want)
		}
	}
}

// Halt from inside the capture callback stops the run before the next event,
// so a callback that finds a divergence can stop the run at that boundary.
func TestCheckpointCallbackMayHalt(t *testing.T) {
	eng := New()
	errStop := errors.New("stop")
	fired := 0
	eng.ConfigureCheckpoints(100, func(at Time, index int64) {
		fired++
		eng.Halt(errStop)
	})
	ran := 0
	for i := 0; i < 5; i++ {
		eng.At(Time(50+i*150), func() { ran++ })
	}
	if err := eng.Run(); !errors.Is(err, errStop) {
		t.Fatalf("Run returned %v, want halt error", err)
	}
	if fired != 1 || ran != 1 {
		t.Fatalf("fired=%d ran=%d, want 1 capture after 1 event", fired, ran)
	}
	eng.Shutdown()
}

// The RNG draw counter must see every draw regardless of which rand.Rand
// method (Source vs Source64 path) produced it, and wrapping must not change
// the value stream relative to an unwrapped source.
func TestCountingSourcePreservesStream(t *testing.T) {
	eng := New()
	eng.Seed(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if g, w := eng.Rand().Int63(), ref.Int63(); g != w {
			t.Fatalf("Int63 draw %d: %d != %d", i, g, w)
		}
		if g, w := eng.Rand().Uint64(), ref.Uint64(); g != w {
			t.Fatalf("Uint64 draw %d: %d != %d", i, g, w)
		}
		if g, w := eng.Rand().Float64(), ref.Float64(); g != w {
			t.Fatalf("Float64 draw %d: %v != %v", i, g, w)
		}
	}
	if eng.rngSrc.draws == 0 {
		t.Fatal("draw counter never advanced")
	}
	// Same seed and draw count ⇒ same digest tail; one more draw ⇒ different.
	a := New()
	a.Seed(7)
	b := New()
	b.Seed(7)
	a.Rand().Int63()
	b.Rand().Int63()
	if !bytes.Equal(a.CheckpointSection(), b.CheckpointSection()) {
		t.Fatal("equal draw counts digest differently")
	}
	b.Rand().Int63()
	if bytes.Equal(a.CheckpointSection(), b.CheckpointSection()) {
		t.Fatal("extra draw not visible in digest")
	}
}

func TestConfigureCheckpointsValidation(t *testing.T) {
	for name, fn := range map[string]func(e *Engine){
		"zero interval": func(e *Engine) { e.ConfigureCheckpoints(0, func(Time, int64) {}) },
		"nil callback":  func(e *Engine) { e.ConfigureCheckpoints(100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(New())
		}()
	}
}
