package armci

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// healedRuntime is faultedRuntime with membership + healing armed and fast
// retry constants suited to microsecond-scale tests.
func healedRuntime(t *testing.T, kind core.Kind, nodes, ppn int, spec string, tweak func(*Config)) (*sim.Engine, *Runtime) {
	t.Helper()
	return faultedRuntime(t, kind, nodes, ppn, spec, func(c *Config) {
		c.Heal.Enabled = true
		c.RequestTimeout = 100 * sim.Microsecond
		c.MaxRetries = 10
		c.CreditTimeout = 200 * sim.Microsecond
		if tweak != nil {
			tweak(c)
		}
	})
}

func TestMembershipDetectsCrashWithinBound(t *testing.T) {
	victim := 5
	_, rt := healedRuntime(t, core.MFCG, 16, 1, fmt.Sprintf("node:%d@t=1ms", victim), nil)
	runAll(t, rt, func(r *Rank) {
		r.Sleep(3 * sim.Millisecond) // keep the detector running past confirmation
	})
	s := rt.Stats()
	if s.Suspicions == 0 || s.Confirms == 0 {
		t.Fatalf("victim never confirmed dead: suspicions=%d confirms=%d", s.Suspicions, s.Confirms)
	}
	// One observer per line of the victim confirms it, and its notices
	// inform every other live neighbor.
	if want := uint64(len(core.Lines(rt.Topology(), victim))); s.Confirms != want {
		t.Errorf("confirms = %d, want one per line = %d", s.Confirms, want)
	}
	for _, u := range rt.Topology().Neighbors(victim) {
		if !rt.node(u).isDead(victim) {
			t.Errorf("neighbor %d was never informed of the crash", u)
		}
	}
	if s.MaxDetectLatency <= 0 || s.MaxDetectLatency > DetectionBound {
		t.Errorf("detection latency %v outside (0, %v]", s.MaxDetectLatency, DetectionBound)
	}
}

func TestHealReroutesAroundCrashedForwarder(t *testing.T) {
	topo := core.MustNew(core.MFCG, 16)
	src, dst, mid := multiHopPair(t, topo)
	_, rt := healedRuntime(t, core.MFCG, 16, 1, fmt.Sprintf("node:%d@t=0s", mid), nil)
	rt.Alloc("mem", 1024)
	want := bytes.Repeat([]byte{0x5C}, 64)
	var opErr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != src {
			return
		}
		r.Sleep(10 * sim.Microsecond)
		h := r.NbPut(dst, "mem", 0, want)
		r.Wait(h)
		opErr = h.Err()
	})
	if opErr != nil {
		t.Fatalf("survivor->survivor put through crashed forwarder failed: %v", opErr)
	}
	if got := rt.Memory(dst, "mem")[:64]; !bytes.Equal(got, want) {
		t.Errorf("healed put corrupted: got %x", got[:8])
	}
	if s := rt.Stats(); s.Confirms == 0 {
		t.Errorf("healing completed the op but the forwarder was never confirmed dead")
	}
	if err := rt.CheckCreditInvariants(); err != nil {
		t.Errorf("credit invariants after heal: %v", err)
	}
}

func TestHealDisabledLosesPath(t *testing.T) {
	topo := core.MustNew(core.MFCG, 16)
	src, dst, mid := multiHopPair(t, topo)
	_, rt := faultedRuntime(t, core.MFCG, 16, 1, fmt.Sprintf("node:%d@t=0s", mid), func(c *Config) {
		c.RequestTimeout = 100 * sim.Microsecond
		c.MaxRetries = 3
		c.CreditTimeout = 200 * sim.Microsecond
	})
	rt.Alloc("mem", 1024)
	var opErr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != src {
			return
		}
		r.Sleep(10 * sim.Microsecond)
		h := r.NbPut(dst, "mem", 0, bytes.Repeat([]byte{0x5C}, 64))
		r.Wait(h)
		opErr = h.Err()
	})
	var te *TimeoutError
	if !errors.As(opErr, &te) {
		t.Fatalf("without healing the put should exhaust its retries, got %v", opErr)
	}
	if s := rt.Stats(); s.Confirms != 0 || s.HealReplays != 0 {
		t.Errorf("healing ran while disabled: confirms=%d replays=%d", s.Confirms, s.HealReplays)
	}
}

func TestCrashedOriginAbortsItsOps(t *testing.T) {
	_, rt := healedRuntime(t, core.FCG, 4, 1, "node:0@t=1ms", nil)
	rt.Alloc("mem", 1024)
	var opErr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() != 0 {
			r.Sleep(3 * sim.Millisecond)
			return
		}
		r.Sleep(2 * sim.Millisecond) // node 0 is down by now
		h := r.NbPut(1, "mem", 0, []byte{1, 2, 3})
		r.Wait(h)
		opErr = h.Err()
	})
	var nf *NodeFailedError
	if !errors.As(opErr, &nf) || nf.Node != 0 {
		t.Fatalf("op issued on a crashed node should fail with NodeFailedError{0}, got %v", opErr)
	}
	if rt.Stats().NodeAborts == 0 {
		t.Errorf("NodeAborts not counted")
	}
	// The target's memory must be untouched: a dead origin injects nothing.
	if got := rt.Memory(1, "mem")[:3]; !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Errorf("crashed origin's put reached the target: %x", got)
	}
}

func TestRecoveredNodeRejoins(t *testing.T) {
	victim := 5
	_, rt := healedRuntime(t, core.MFCG, 16, 1,
		fmt.Sprintf("node:%d@t=500us@for=1500us", victim), nil)
	rt.Alloc("mem", 1024)
	want := []byte{0xAB, 0xCD}
	var opErr error
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == victim {
			r.Sleep(5 * sim.Millisecond)
			return
		}
		r.Sleep(4 * sim.Millisecond) // well past recovery at t=2ms + rejoin
		if r.Rank() == 0 {
			h := r.NbPut(victim, "mem", 0, want)
			r.Wait(h)
			opErr = h.Err()
		}
	})
	s := rt.Stats()
	if s.Confirms == 0 {
		t.Fatalf("victim was never confirmed dead")
	}
	if s.Rejoins == 0 {
		t.Fatalf("victim never rejoined after recovery")
	}
	if opErr != nil {
		t.Errorf("put to recovered node failed: %v", opErr)
	}
	if got := rt.Memory(victim, "mem")[:2]; !bytes.Equal(got, want) {
		t.Errorf("post-recovery put corrupted: got %x", got)
	}
	if err := rt.CheckCreditInvariants(); err != nil {
		t.Errorf("credit invariants after crash/recover cycle: %v", err)
	}
}

// TestPropertyHotSpotCreditsSurviveCrash is the credit x node-fault
// interaction property: a crash/recovery cycle in the middle of a hot-spot
// workload that keeps small pools saturated must leave every egress within
// [0, PPN * BufsPerProc] with no negative debt.
func TestPropertyHotSpotCreditsSurviveCrash(t *testing.T) {
	for _, kind := range []core.Kind{core.MFCG, core.CFCG} {
		t.Run(kind.String(), func(t *testing.T) {
			victim := 3
			_, rt := healedRuntime(t, kind, 16, 2,
				fmt.Sprintf("node:%d@t=400us@for=1ms", victim), func(c *Config) {
					c.BufsPerProc = 2
				})
			rt.Alloc("hot", 8)
			runAll(t, rt, func(r *Rank) {
				// Everyone hammers rank 0 (hot spot) across the crash window.
				for i := 0; i < 40; i++ {
					r.Acc(0, "hot", 0, 1.0, []float64{1})
					r.Sleep(50 * sim.Microsecond)
				}
			})
			if err := rt.CheckCreditInvariants(); err != nil {
				t.Fatalf("invariants violated: %v", err)
			}
		})
	}
}

// TestHealConfigNoNodeFaultsBitIdentical pins the arming rule: with no
// node: entries in the schedule, enabling Heal changes nothing — same final
// virtual time, same counters — so the flag is free on existing workloads.
func TestHealConfigNoNodeFaultsBitIdentical(t *testing.T) {
	run := func(healOn bool) (sim.Time, Stats) {
		eng := sim.New()
		cfg := DefaultConfig(8, 2)
		cfg.Topology = core.MustNew(core.Hypercube, 8)
		cfg.Faults = faults.NewInjector(eng, 8, faults.MustParseSpec("link:0-1@t=100us@for=300us"))
		cfg.Heal.Enabled = healOn
		rt := MustNew(eng, cfg)
		rt.Alloc("mem", 256)
		if err := rt.Run(func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Put((r.Rank()+3)%r.N(), "mem", 8*r.Rank(), []byte{byte(i), 1, 2, 3})
				r.Sleep(40 * sim.Microsecond)
			}
			r.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown()
		return eng.Now(), rt.Stats()
	}
	tOn, sOn := run(true)
	tOff, sOff := run(false)
	if tOn != tOff {
		t.Errorf("final time differs: heal on %v vs off %v", tOn, tOff)
	}
	if sOn != sOff {
		t.Errorf("stats differ:\n on: %+v\noff: %+v", sOn, sOff)
	}
}
