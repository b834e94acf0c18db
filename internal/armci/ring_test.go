package armci

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// TestProbesPerPeriod pins the ring detector's probe load: one probe per
// line per node per period, where the all-neighbor detector sent one per
// edge (MFCG 256: 7 680). Hypercube lines have one member each, so its load
// is unchanged.
func TestProbesPerPeriod(t *testing.T) {
	for _, tc := range []struct {
		kind  core.Kind
		nodes int
		want  uint64
	}{
		{core.MFCG, 256, 512},
		{core.FCG, 64, 64},
		{core.CFCG, 64, 192},
		{core.Hypercube, 64, 384},
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.kind, tc.nodes), func(t *testing.T) {
			// The crash lies far past the window: it only arms healing.
			eng, rt := healedRuntime(t, tc.kind, tc.nodes, 1, "node:1@t=1s", nil)
			defer rt.Shutdown()
			rt.Start(func(r *Rank) { r.Sleep(sim.Millisecond) })
			if _, ok := eng.RunUntil(heartbeatInterval + heartbeatInterval/2).(*sim.TimeLimitError); !ok {
				t.Fatal("the run ended inside its first period")
			}
			if got := rt.Stats().Probes; got != tc.want {
				t.Errorf("probes in the first period = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestRingObserversCoverEveryNeighbor checks the dissemination argument on
// every family: for every node x and every neighbor u of x, either u judges
// x, or u shares a line with an observer of x and so hears that observer's
// notice in one hop.
func TestRingObserversCoverEveryNeighbor(t *testing.T) {
	for _, tc := range []struct {
		kind  core.Kind
		nodes int
	}{
		{core.FCG, 8}, {core.MFCG, 16}, {core.MFCG, 10}, {core.MFCG, 50},
		{core.CFCG, 27}, {core.CFCG, 10}, {core.CFCG, 50}, {core.Hypercube, 16},
		{core.HyperX, 64}, {core.Dragonfly, 32}, {core.Dragonfly, 50},
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.kind, tc.nodes), func(t *testing.T) {
			_, rt := healedRuntime(t, tc.kind, tc.nodes, 1, "node:0@t=1s", nil)
			defer rt.Shutdown()
			observers := make([][]int, tc.nodes) // observers[x]: nodes judging x
			for u := range rt.cfg.Nodes {
				ns := rt.node(u)
				for _, ln := range ns.rings() {
					if ln.judged >= 0 {
						x := ns.nbrs[ln.judged]
						observers[x] = append(observers[x], u)
					}
				}
			}
			for x := range rt.cfg.Nodes {
				for _, u := range rt.node(x).nbrs {
					if covered(rt, u, x, observers[x]) {
						continue
					}
					t.Fatalf("neighbor %d of %d neither judges it nor shares a line with one of its observers %v",
						u, x, observers[x])
				}
			}
		})
	}
}

// covered reports whether u judges x or shares its line through x with one
// of x's observers (adjacent to it, the line being a clique).
func covered(rt *Runtime, u, x int, observers []int) bool {
	ns := rt.node(u)
	ln := ns.lineOf(int32(ns.nbrIdx(x)))
	for _, o := range observers {
		if o == u {
			return true
		}
		for _, i := range ln.members {
			if ns.nbrs[i] == o && rt.topo.Connected(u, o) {
				return true
			}
		}
	}
	return false
}

// TestRingAdjacentCrashes crashes k adjacent members of one MFCG row at the
// same instant: the row observer of the highest one confirms it, takes over
// the next lower one and confirms that too, and so on down the row, and the
// column observers confirm each in their own columns. Every live neighbor of
// every victim must end up holding it dead, every confirmation must land
// inside DetectionBound of its observer's judging start, every notice inside
// k*DetectionBound of the crash plus one hop (the takeover chain is k long),
// and no survivor-to-survivor op may fail.
func TestRingAdjacentCrashes(t *testing.T) {
	// noticeHop bounds one 16-byte notice's flight over one virtual edge of
	// an 8x8 MFCG (a few microseconds measured).
	const nodes, noticeHop = 64, 20 * sim.Microsecond
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			// MFCG 8x8: victims 2 .. 2+k-1 sit side by side in row 0.
			victim := func(r int) bool { return r >= 2 && r < 2+k }
			var spec []string
			for v := 2; v < 2+k; v++ {
				spec = append(spec, fmt.Sprintf("node:%d@t=300us", v))
			}
			_, rt := healedRuntime(t, core.MFCG, nodes, 1, strings.Join(spec, ","), nil)
			rt.Alloc("ledger", 8*nodes)
			var survivors []int
			for r := 0; r < nodes; r++ {
				if !victim(r) {
					survivors = append(survivors, r)
				}
			}
			failed := 0
			runAll(t, rt, func(r *Rank) {
				if victim(r.Rank()) {
					r.Sleep(4 * sim.Millisecond)
					return
				}
				rng := rand.New(rand.NewSource(int64(r.Rank())))
				for i := 0; i < 12; i++ {
					h := r.NbAcc(survivors[rng.Intn(len(survivors))], "ledger", 8*r.Rank(), 1.0, []float64{1})
					r.Wait(h)
					if h.Err() != nil {
						failed++
					}
					r.Sleep(sim.Time(100+rng.Intn(200)) * sim.Microsecond)
				}
			})
			s := rt.Stats()
			if failed != 0 {
				t.Errorf("%d survivor ops failed", failed)
			}
			// Row 0's observer confirms every victim through the takeover
			// chain; each victim's column observer confirms it once more.
			if want := uint64(2 * k); s.Confirms != want {
				t.Errorf("confirms = %d, want %d (row observer %d times, one per column)", s.Confirms, want, k)
			}
			if s.MaxDetectLatency <= 0 || s.MaxDetectLatency > DetectionBound {
				t.Errorf("detection latency %v outside (0, %v]", s.MaxDetectLatency, DetectionBound)
			}
			if bound := sim.Time(k)*DetectionBound + noticeHop; s.MaxNotifyLatency <= 0 || s.MaxNotifyLatency > bound {
				t.Errorf("notify latency %v outside (0, %v]", s.MaxNotifyLatency, bound)
			}
			for v := 2; v < 2+k; v++ {
				for _, u := range rt.Topology().Neighbors(v) {
					if !victim(u) && !rt.node(u).isDead(v) {
						t.Errorf("live neighbor %d of victim %d was never informed", u, v)
					}
				}
			}
			if err := rt.CheckCreditInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRingLateDeathNoticeAfterReboot: a node that reboots just before its
// observer's confirming tick announces itself to every neighbor, and that
// announcement can reach a line member ahead of the observer's death
// notice, which left at the tick over a different fabric path. The late
// notice must not mark the rebooted node dead again: nothing would correct
// it, since the member no longer probes a node it holds dead. The reboot
// instant sweeps the window before the tick in which the observer still
// confirms (its own copy of the announcement arrives after the tick), and
// every neighbor must end up holding the node alive.
func TestRingLateDeathNoticeAfterReboot(t *testing.T) {
	const x, crash = 3, 250 * sim.Microsecond // MFCG 8x8: row 0, column 3
	run := func(spec string) *Runtime {
		_, rt := healedRuntime(t, core.MFCG, 64, 1, spec, nil)
		runAll(t, rt, func(r *Rank) { r.Sleep(3 * sim.Millisecond) })
		return rt
	}
	// Without a reboot the observers confirm x at one tick.
	base := run(fmt.Sprintf("node:%d@t=%v", x, time.Duration(crash)))
	tick := crash + base.Stats().MaxDetectLatency
	raced := 0
	for early := sim.Time(0); early <= 5*sim.Microsecond; early += 250 * sim.Nanosecond {
		rt := run(fmt.Sprintf("node:%d@t=%v@for=%v", x, time.Duration(crash), time.Duration(tick-early-crash)))
		if rt.Stats().Confirms == 0 {
			continue // the announcement beat the tick: nothing to race
		}
		raced++
		for _, u := range rt.node(x).nbrs {
			if rt.node(u).isDead(x) {
				t.Errorf("reboot %v before the confirming tick: neighbor %d still holds %d dead", early, u, x)
			}
		}
	}
	if raced == 0 {
		t.Fatal("no reboot instant fell between the confirming tick and the announcement's arrival")
	}
}

// TestRingRebootLearnsDeadSet: a node that reboots has lost its view, so
// deaths announced while it was down must reach it on rejoin. Node 1 of an
// MFCG 8x8 row is down from 200us to 1.2ms; node 5 of the same row dies at
// 300us and is confirmed and announced while node 1 is still down. On its
// reboot, node 1's row judge hands it the row's dead set, so it holds 5
// dead, and every other neighbor alive.
func TestRingRebootLearnsDeadSet(t *testing.T) {
	const rebooted, dead = 1, 5
	_, rt := healedRuntime(t, core.MFCG, 64, 1,
		fmt.Sprintf("node:%d@t=200us@for=1ms,node:%d@t=300us", rebooted, dead), nil)
	runAll(t, rt, func(r *Rank) { r.Sleep(3 * sim.Millisecond) })
	ns := rt.node(rebooted)
	for _, u := range ns.nbrs {
		if got, want := ns.isDead(u), u == dead; got != want {
			t.Errorf("after reboot node %d holds %d dead = %v, want %v", rebooted, u, got, want)
		}
	}
	if s := rt.Stats(); s.Rejoins == 0 || s.Notices == 0 {
		t.Errorf("reboot was never announced: %+v", s)
	}
}
