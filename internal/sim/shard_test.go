package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// shardPingWorkload runs a synthetic owner-pinned workload — a ring of
// processes exchanging timestamped messages across owners, plus global
// barrier-style rendezvous — and returns every owner's event log, the sim
// sections and the final clock. With every > 0 the run is stepped through
// the horizons every, 2*every, ... and a section is read at each; the last
// section is always the one after the run. The results must be
// bit-identical at every shard count: that is the kernel's determinism
// contract.
func shardPingWorkload(t *testing.T, shards int, every Time) (logs [][]string, sections [][]byte, end Time) {
	t.Helper()
	const (
		owners    = 8
		lookahead = Time(100)
		rounds    = 12
	)
	eng := New()
	eng.ConfigureShards(shards, owners, func(pos int) int { return pos * shards / owners }, lookahead)

	logs = make([][]string, owners)
	logAt := func(owner int, format string, args ...any) {
		logs[owner] = append(logs[owner], fmt.Sprintf(format, args...))
	}

	// Cross-owner message chains: each owner forwards a token around the
	// ring, every hop at least one lookahead ahead (the fabric's rule).
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

	// Global rendezvous: every owner reaches back to the global lane, which
	// may mutate cross-owner state with serial semantics.
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
	if every > 0 {
		sections = stepHorizons(t, eng, every)
	} else if err := eng.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if arrivals != owners {
		t.Fatalf("shards=%d: %d arrivals, want %d", shards, arrivals, owners)
	}
	sections = append(sections, eng.CheckpointSection())
	eng.Shutdown()
	return logs, sections, eng.Now()
}

func TestShardedDeterminismMatchesSerial(t *testing.T) {
	base, _, baseEnd := shardPingWorkload(t, 1, 0)
	for _, shards := range []int{2, 3, 8} {
		got, _, end := shardPingWorkload(t, shards, 0)
		if end != baseEnd {
			t.Errorf("shards=%d: final clock %v, serial %v", shards, end, baseEnd)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d: event logs diverge from serial\nserial: %v\nsharded: %v", shards, base, got)
		}
	}
}

func TestShardReportCountsWindows(t *testing.T) {
	eng := New()
	eng.ConfigureShards(4, 8, func(pos int) int { return pos / 2 }, 100)
	for o := 0; o < 8; o++ {
		o := o
		eng.SpawnOn(o, fmt.Sprintf("p%d", o), func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(50)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	rep := eng.ShardReport()
	if rep.Shards != 4 {
		t.Errorf("Shards = %d, want 4", rep.Shards)
	}
	if rep.Windows == 0 {
		t.Error("no windows dispatched")
	}
	if len(rep.LaneEvents) != 4 {
		t.Fatalf("LaneEvents has %d entries, want 4", len(rep.LaneEvents))
	}
	var total uint64
	for _, n := range rep.LaneEvents {
		total += n
	}
	if total == 0 {
		t.Error("no lane events executed")
	}
	if eng.Shards() != 4 {
		t.Errorf("Shards() = %d, want 4", eng.Shards())
	}
}

func TestConfigureShardsValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero shards", func() {
		New().ConfigureShards(0, 4, func(int) int { return 0 }, 100)
	})
	mustPanic("zero lookahead", func() {
		New().ConfigureShards(2, 4, func(int) int { return 0 }, 0)
	})
	mustPanic("twice", func() {
		e := New()
		e.ConfigureShards(2, 4, func(int) int { return 0 }, 100)
		e.ConfigureShards(2, 4, func(int) int { return 0 }, 100)
	})

	// More shards than owners clamps instead of panicking.
	e := New()
	e.ConfigureShards(16, 4, func(pos int) int { return pos }, 100)
	if got := e.Shards(); got != 4 {
		t.Errorf("Shards() = %d, want clamp to 4", got)
	}
	e.Shutdown()
}

func TestCrossShardSchedulingInsideLookaheadPanics(t *testing.T) {
	eng := New()
	eng.ConfigureShards(2, 2, func(pos int) int { return pos }, 100)
	violated := make(chan any, 1)
	eng.SpawnOn(0, "violator", func(p *Proc) {
		p.Sleep(10)
		func() {
			defer func() { violated <- recover() }()
			// Owner 1 lives on the other shard; t = now is inside the
			// current lookahead window and must be rejected.
			eng.AtFrom(0, 1, p.Now(), func() {})
		}()
		// Keep the lane alive long enough for the panic to be collected.
		p.Sleep(1000)
	})
	eng.SpawnOn(1, "peer", func(p *Proc) { p.Sleep(2000) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	if rec := <-violated; rec == nil {
		t.Fatal("cross-shard event inside the lookahead window did not panic")
	}
}

// TestSerialInstantRunsGlobalEventsAlone checks that global events execute
// with every lane quiesced and may mutate cross-owner state: the classic
// barrier-counter pattern.
func TestSerialInstantRunsGlobalEventsAlone(t *testing.T) {
	eng := New()
	const owners = 4
	eng.ConfigureShards(2, owners, func(pos int) int { return pos * 2 / owners }, 50)
	counter := 0
	releases := make([]*Event, owners)
	for o := 0; o < owners; o++ {
		releases[o] = NewEvent(eng, fmt.Sprintf("rel%d", o))
	}
	for o := 0; o < owners; o++ {
		o := o
		eng.SpawnOn(o, fmt.Sprintf("p%d", o), func(p *Proc) {
			p.Sleep(Time(5 * (o + 1)))
			eng.AtGlobal(o, func() {
				counter++ // cross-owner state, legal at a serial instant
				if counter == owners {
					for _, ev := range releases {
						ev.Fire()
					}
				}
			})
			releases[o].Wait(p)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	if counter != owners {
		t.Fatalf("counter = %d, want %d", counter, owners)
	}
}
