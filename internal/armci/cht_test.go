package armci

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// chtLoopRef is the blocking helper-thread loop that chtStep replaced, kept
// as the reference chtStep is compared against: the same three waits, with
// the request in hand on the goroutine's stack instead of in ns.cur.
func (ns *nodeState) chtLoopRef(p *sim.Proc) {
	fi := ns.rt.faultInj
	for {
		req := ns.inbox.Get(p)
		if fi.NodeDown(ns.id) {
			continue
		}
		for !fi.AwaitRepair(ns.id, p) {
		}
		ns.curStart, ns.curSvc = p.Now(), ns.serviceTime(req)
		p.Sleep(ns.curSvc)
		ns.serve(req)
	}
}

// startRef is Runtime.Start with chtLoopRef daemons in place of the step
// CHTs (same spawn order, so process ids and names match).
func (rt *Runtime) startRef(body func(r *Rank)) {
	for i := range rt.cfg.Nodes {
		ns := rt.node(i)
		rt.eng.SpawnDaemonOn(ns.id, fmt.Sprintf("cht%d", ns.id), ns.chtLoopRef)
	}
	rt.liveRanks = len(rt.ranks)
	for i := range rt.ranks {
		r := &rt.ranks[i]
		rt.eng.SpawnOn(r.Node(), fmt.Sprintf("rank%d", r.Rank()), func(p *sim.Proc) {
			r.rt, r.proc = rt, p
			body(r)
			r.flushAllAgg()
			rt.eng.AtGlobal(func() { rt.liveRanks-- })
			r.proc = nil
		})
	}
	if rt.healArmed {
		for i := range rt.cfg.Nodes {
			ns := rt.node(i)
			rt.eng.AfterOn(ns.id, heartbeatInterval, ns.monitorTick)
		}
	}
}

// chtScenario is what one run of the fault scenario below left behind.
type chtScenario struct {
	trace    []sim.TraceRecord
	stats    Stats
	kernel   []byte // sim CheckpointSection at the end
	runtime  []byte // armci checkpoint section at the end
	counters []byte // the "counter" slabs of every rank
	blocked  []string
	end      sim.Time
}

// runCHTScenario drives every blocking point of the CHT through its awkward
// cases on a 9-node MFCG, either with the reference loop or with chtStep:
//   - node 4's CHT stalls for 150us while requests to and through it arrive,
//     so it dequeues one, waits out the repair holding it, and serves it late;
//   - node 2 crashes (inbox cleared) and reboots, and a request that reaches
//     its inbox while it is down is dropped unserved;
//   - node 7's inbox is cleared in the very event that filled it, between the
//     Put and the CHT's wake-up: the CHT must find nothing and go back to
//     waiting, and still serve the traffic that follows.
func runCHTScenario(t *testing.T, ref bool) chtScenario {
	t.Helper()
	eng, rt := healedRuntime(t, core.MFCG, 9, 1, "cht:4@t=20us@for=150us,node:2@t=60us@for=1ms", nil)
	var out chtScenario
	eng.SetTracer(sim.TracerFunc(func(r sim.TraceRecord) { out.trace = append(out.trace, r) }))
	rt.Alloc("counter", 64)
	eng.At(100*sim.Microsecond, func() { rt.node(2).inbox.Put(&request{}) })
	eng.At(300*sim.Microsecond, func() {
		ns := rt.node(7)
		ns.inbox.Put(&request{})
		ns.crashStop()
	})
	body := func(r *Rank) {
		for i := 0; i < 12; i++ {
			dst := (r.Rank() + 1 + 2*i) % r.N()
			if dst == r.Rank() {
				dst = (dst + 1) % r.N()
			}
			h := r.NbFetchAdd(dst, "counter", 0, int64(r.Rank()+1))
			r.Wait(h) // ops caught by the crash fail; their error is part of Stats
			r.Sleep(sim.Time(5+r.Rank()) * sim.Microsecond)
			if i%4 == 3 {
				r.Wait(r.NbPut(dst, "counter", 8, []byte{byte(i), byte(r.Rank())}))
			}
		}
		r.Sleep(2 * sim.Millisecond) // keep the monitors running past the reboot
	}
	if ref {
		rt.startRef(body)
	} else {
		rt.Start(body)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	out.stats, out.end = rt.Stats(), eng.Now()
	out.kernel, out.runtime = eng.CheckpointSection(), rt.checkpointSection()
	for rank := 0; rank < rt.NRanks(); rank++ {
		out.counters = append(out.counters, rt.Memory(rank, "counter")...)
	}
	out.blocked = eng.BlockedDaemons()
	eng.Shutdown()
	return out
}

func TestStepCHTMatchesBlockingLoop(t *testing.T) {
	want, got := runCHTScenario(t, true), runCHTScenario(t, false)
	if s := want.stats; s.Forwards == 0 || s.Timeouts == 0 || s.Retries == 0 || s.Confirms == 0 || s.Rejoins == 0 {
		t.Fatalf("scenario does not exercise forwarding, retry and crash/rejoin: %+v", s)
	}
	if got.end != want.end {
		t.Errorf("end time %v, reference %v", got.end, want.end)
	}
	if got.stats != want.stats {
		t.Errorf("stats differ\n got %+v\nwant %+v", got.stats, want.stats)
	}
	if !bytes.Equal(got.kernel, want.kernel) {
		t.Error("kernel checkpoint sections differ")
	}
	if !bytes.Equal(got.runtime, want.runtime) {
		t.Error("armci checkpoint sections differ")
	}
	if !bytes.Equal(got.counters, want.counters) {
		t.Error("memory contents differ")
	}
	if !reflect.DeepEqual(got.blocked, want.blocked) {
		t.Errorf("CHTs left blocked on %v, reference %v", got.blocked, want.blocked)
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("%d trace records, reference %d", len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("trace record %d: %v, reference %v", i, got.trace[i], want.trace[i])
		}
	}
}

// The state a step CHT keeps between calls, at each of its three waits.
func TestStepCHTStateAtEachWait(t *testing.T) {
	eng, rt := faultedRuntime(t, core.FCG, 2, 1, "cht:1@t=10us@for=100us", nil)
	rt.Alloc("counter", 8)
	ns := rt.node(1)
	var stalled *request
	var stalledSvc sim.Time
	eng.At(50*sim.Microsecond, func() { stalled, stalledSvc = ns.cur, ns.curSvc })
	runAll(t, rt, func(r *Rank) {
		if r.Rank() == 0 {
			r.Sleep(20 * sim.Microsecond)
			r.FetchAdd(1, "counter", 0, 5)
		}
	})
	if stalled == nil || stalledSvc >= 0 {
		t.Errorf("mid-stall: CHT holds %v with service time %v, want a dequeued request not yet in service", stalled, stalledSvc)
	}
	if ns.inbox.MaxLen() != 1 || ns.curStart != 110*sim.Microsecond || ns.curSvc <= 0 {
		t.Errorf("after repair: served 1 of %d request(s) from %v for %v, want the one held request served from the repair at 110us",
			ns.inbox.MaxLen(), ns.curStart, ns.curSvc)
	}
	if ns.cur != nil || eng.BlockedDaemons()[1] != "cht1: queue cht1" {
		t.Errorf("at the end: CHT holds %v, daemons blocked on %v; want an idle CHT waiting on its inbox", ns.cur, eng.BlockedDaemons())
	}
	if got := GetInt64(rt.Memory(1, "counter"), 0); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}
