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

// pingWorkload runs a synthetic owner-pinned workload — a ring of processes
// exchanging timestamped messages across owners, plus global barrier-style
// rendezvous — and returns every owner's event log, the sim sections and the
// final clock. With every > 0 the run is stepped through the horizons every,
// 2*every, ... and a section is read at each; the last section is always the
// one after the run.
func pingWorkload(t *testing.T, every Time) (logs [][]string, sections [][]byte, end Time) {
	t.Helper()
	const (
		owners = 8
		delay  = Time(100)
		rounds = 12
	)
	eng := New()
	eng.ConfigureOwners(owners, delay)

	logs = make([][]string, owners)
	logAt := func(owner int, format string, args ...any) {
		logs[owner] = append(logs[owner], fmt.Sprintf(format, args...))
	}

	// Cross-owner message chains: each owner forwards a token around the
	// ring, every hop at least one delay ahead (the fabric's rule).
	var hop func(from, depth int)
	hop = func(from, depth int) {
		if depth >= rounds {
			return
		}
		to := (from + 1) % owners
		eng.AtOn(to, eng.Now()+delay+Time(depth%3), func() {
			logAt(to, "hop d=%d t=%v from=%d", depth, eng.Now(), from)
			hop(to, depth+1)
		})
	}

	// Global rendezvous: every owner reaches back to a global event, which
	// mutates cross-owner state.
	arrivals := 0
	for o := 0; o < owners; o++ {
		o := o
		eng.SpawnOn(o, fmt.Sprintf("proc%d", o), func(p *Proc) {
			logAt(o, "start t=%v", p.Now())
			hop(o, 0)
			p.Sleep(Time(10 * (o + 1)))
			eng.AtGlobal(func() {
				arrivals++
				logAt(o, "arrived t=%v n=%d", eng.Now(), arrivals)
			})
			p.Sleep(Time(500))
			logAt(o, "end t=%v", p.Now())
		})
	}
	if every > 0 {
		sections = stepHorizons(t, eng, every)
	} else if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals != owners {
		t.Fatalf("%d arrivals, want %d", arrivals, owners)
	}
	sections = append(sections, eng.CheckpointSection())
	eng.Shutdown()
	return logs, sections, eng.Now()
}

// The headline kernel property for digests: two runs stepped through the
// same horizons read the same sim section at every horizon, and end with
// the same logs and clock.
func TestCheckpointCapturesBitIdenticalAcrossReruns(t *testing.T) {
	for _, every := range []Time{64, 100, 333} {
		baseLogs, baseSecs, baseEnd := pingWorkload(t, every)
		if len(baseSecs) < 3 {
			t.Fatalf("every=%d: the run passed only %d horizons", every, len(baseSecs)-1)
		}
		logs, secs, end := pingWorkload(t, every)
		if end != baseEnd || !reflect.DeepEqual(logs, baseLogs) {
			t.Errorf("every=%d: rerun ends at %v with different logs (first run %v)", every, end, baseEnd)
		}
		if len(secs) != len(baseSecs) {
			t.Fatalf("every=%d: %d sections, first run %d", every, len(secs), len(baseSecs))
		}
		for i := range secs {
			if !bytes.Equal(secs[i], baseSecs[i]) {
				t.Errorf("every=%d: section %d diverges from the first run's", every, i)
			}
		}
	}
}

// Stepping through horizons must not perturb the workload: a stepped serial
// run ends with the logs, clock and section of one uninterrupted Run.
func TestArmedRunMatchesUnarmed(t *testing.T) {
	whole, wholeSecs, wholeEnd := pingWorkload(t, 0)
	stepped, steppedSecs, steppedEnd := pingWorkload(t, 100)
	if steppedEnd != wholeEnd || !reflect.DeepEqual(stepped, whole) {
		t.Fatal("stepping through horizons perturbed the run")
	}
	if !bytes.Equal(steppedSecs[len(steppedSecs)-1], wholeSecs[0]) {
		t.Fatal("a stepped run ends in a different kernel state than one Run")
	}
}

// Horizon semantics: RunUntil(h) runs every event at exactly h before it
// returns, and a horizon inside an event gap stops with the clock at h and
// the later events pending.
func TestCheckpointBoundarySemantics(t *testing.T) {
	eng := New()
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
				t.Fatalf("RunUntil(%v): %v", h, err)
			}
			break
		}
		trace = append(trace, fmt.Sprintf("h@%d now=%d pending=%d", h, eng.Now(), tl.Pending))
	}
	eng.Shutdown()
	want := []string{"ev@100", "h@100 now=100 pending=2", "ev@150", "h@200 now=200 pending=1",
		"h@300 now=300 pending=1", "h@400 now=400 pending=1", "ev@500"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
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
