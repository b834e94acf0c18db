package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// stepHorizons runs eng to completion through the horizons every, 2*every,
// ... and returns the sim section read at each horizon RunUntil stops at.
func stepHorizons(t *testing.T, eng *Engine, every Time) [][]byte {
	t.Helper()
	var sections [][]byte
	for h := every; ; h += every {
		err := eng.RunUntil(h)
		var tl *TimeLimitError
		if !errors.As(err, &tl) {
			if err != nil {
				t.Fatalf("RunUntil(%v): %v", h, err)
			}
			return sections
		}
		sections = append(sections, eng.CheckpointSection())
	}
}

// The headline kernel property for digests: a run stepped through horizons
// reads the same sim section at every horizon, and ends with the same logs
// and clock, at every shard count.
func TestCheckpointCapturesBitIdenticalAcrossShards(t *testing.T) {
	for _, every := range []Time{64, 100, 333} {
		baseLogs, baseSecs, baseEnd := shardPingWorkload(t, 1, every)
		if len(baseSecs) < 3 {
			t.Fatalf("every=%d: the run passed only %d horizons", every, len(baseSecs)-1)
		}
		for _, shards := range []int{2, 3, 8} {
			logs, secs, end := shardPingWorkload(t, shards, every)
			if end != baseEnd {
				t.Errorf("every=%d shards=%d: final clock %v, serial %v", every, shards, end, baseEnd)
			}
			if !reflect.DeepEqual(logs, baseLogs) {
				t.Errorf("every=%d shards=%d: event logs diverge from serial", every, shards)
			}
			if len(secs) != len(baseSecs) {
				t.Fatalf("every=%d shards=%d: %d sections, serial %d", every, shards, len(secs), len(baseSecs))
			}
			for i := range secs {
				if !bytes.Equal(secs[i], baseSecs[i]) {
					t.Errorf("every=%d shards=%d: section %d diverges from serial", every, shards, i)
				}
			}
		}
	}
}

// Stepping through horizons must not perturb the workload: a stepped serial
// run ends with the logs, clock and section of one uninterrupted Run.
func TestArmedRunMatchesUnarmed(t *testing.T) {
	whole, wholeSecs, wholeEnd := shardPingWorkload(t, 1, 0)
	stepped, steppedSecs, steppedEnd := shardPingWorkload(t, 1, 100)
	if steppedEnd != wholeEnd || !reflect.DeepEqual(stepped, whole) {
		t.Fatal("stepping through horizons perturbed the run")
	}
	if !bytes.Equal(steppedSecs[len(steppedSecs)-1], wholeSecs[0]) {
		t.Fatal("a stepped run ends in a different kernel state than one Run")
	}
}

// Horizon semantics: RunUntil(h) runs every event at exactly h before it
// returns, and a horizon inside an event gap stops with the clock at h and
// the later events pending, in serial and sharded mode alike.
func TestCheckpointBoundarySemantics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng := New()
		eng.ConfigureShards(shards, 2, func(pos int) int { return pos % shards }, 10)
		var trace []string
		for _, at := range []Time{100, 150, 500} {
			at := at
			eng.AtOn(0, at, func() { trace = append(trace, fmt.Sprintf("ev@%d", at)) })
		}
		for h := Time(100); ; h += 100 {
			err := eng.RunUntil(h)
			var tl *TimeLimitError
			if !errors.As(err, &tl) {
				if err != nil {
					t.Fatalf("shards=%d: RunUntil(%v): %v", shards, h, err)
				}
				break
			}
			trace = append(trace, fmt.Sprintf("h@%d now=%d pending=%d", h, eng.Now(), tl.Pending))
		}
		eng.Shutdown()
		want := []string{"ev@100", "h@100 now=100 pending=2", "ev@150", "h@200 now=200 pending=1",
			"h@300 now=300 pending=1", "h@400 now=400 pending=1", "ev@500"}
		if !reflect.DeepEqual(trace, want) {
			t.Fatalf("shards=%d: trace %v, want %v", shards, trace, want)
		}
	}
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
