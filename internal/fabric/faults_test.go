package fabric

import (
	"bytes"
	"slices"
	"testing"

	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// faultyNet builds a 1-D ring of n nodes (every route is unambiguous) with
// the given fault spec installed.
func faultyNet(t *testing.T, n int, spec string, tweak func(*Config)) (*sim.Engine, *Network, *faults.Injector) {
	t.Helper()
	e := sim.New()
	inj := faults.NewInjector(e, n, faults.MustParseSpec(spec))
	cfg := Config{Shape: [3]int{n, 1, 1}, Faults: inj}
	if tweak != nil {
		tweak(&cfg)
	}
	return e, New(e, n, cfg), inj
}

func TestFaultFreeRoutesIdentical(t *testing.T) {
	e := sim.New()
	inj := faults.NewInjector(e, 60, faults.MustParseSpec("cht:3"))
	plain := New(e, 60, Config{Shape: [3]int{4, 4, 4}})
	faulted := New(e, 60, Config{Shape: [3]int{4, 4, 4}, Faults: inj})
	for a := 0; a < 60; a += 7 {
		for b := 0; b < 60; b += 5 {
			p, q := plain.route(a, b, nil), faulted.routeFaultAware(a, b, nil)
			if len(p) != len(q) {
				t.Fatalf("route(%d,%d) lengths differ: %d vs %d", a, b, len(p), len(q))
			}
			for i := range p {
				if p[i] != q[i] {
					t.Fatalf("route(%d,%d) hop %d differs: %d vs %d", a, b, i, p[i], q[i])
				}
			}
		}
	}
	if faulted.Stats().Reroutes != 0 {
		t.Errorf("Reroutes = %d with no link faults", faulted.Stats().Reroutes)
	}
}

func TestRerouteAroundFailedLink(t *testing.T) {
	// Ring of 4: 0->1 is one hop, but with link 0-1 down the route must take
	// the long arc 0->3->2->1.
	e, nw, _ := faultyNet(t, 4, "link:0-1@t=0s", nil)
	var done sim.Time
	nw.SendArg(0, 1, 1024, func(any, bool) { done = e.Now() }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("message never delivered")
	}
	st := nw.Stats()
	if st.Reroutes != 1 {
		t.Errorf("Reroutes = %d, want 1", st.Reroutes)
	}
	if st.LinkStalls != 0 || st.Dropped != 0 {
		t.Errorf("rerouted message stalled or dropped: %+v", st)
	}
}

func TestStallResumesAfterRepair(t *testing.T) {
	// Both arcs broken until t=1ms: the message parks at the failed link and
	// resumes once it repairs.
	e, nw, _ := faultyNet(t, 4, "link:0-1@t=0s@for=1ms,link:0-3@t=0s@for=1ms", nil)
	var done sim.Time
	nw.SendArg(0, 1, 1024, func(any, bool) { done = e.Now() }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done < sim.Millisecond {
		t.Errorf("delivered at %v, before the link repaired", done)
	}
	st := nw.Stats()
	if st.LinkStalls == 0 {
		t.Error("no link stall recorded")
	}
	if st.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", st.Dropped)
	}
}

func TestDropAfterStallLimit(t *testing.T) {
	e, nw, _ := faultyNet(t, 4, "link:0-1@t=0s,link:0-3@t=0s", func(c *Config) {
		c.LinkStallLimit = 100 * sim.Microsecond
	})
	delivered := false
	nw.SendArg(0, 1, 1024, func(any, bool) { delivered = true }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("message crossed a permanently failed cut")
	}
	if nw.Stats().Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", nw.Stats().Dropped)
	}
}

func TestDegradeStretchesSerialization(t *testing.T) {
	run := func(spec string) sim.Time {
		var e *sim.Engine
		var nw *Network
		if spec == "" {
			e = sim.New()
			nw = New(e, 4, Config{Shape: [3]int{4, 1, 1}})
		} else {
			e, nw, _ = faultyNet(t, 4, spec, nil)
		}
		var done sim.Time
		nw.SendArg(0, 1, 1<<20, func(any, bool) { done = e.Now() }, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	healthy := run("")
	degraded := run("degrade:0-1@t=0s@for=10ms@bw=0.25")
	if degraded <= healthy {
		t.Errorf("degraded delivery %v not slower than healthy %v", degraded, healthy)
	}
}

func TestLinkEndsInverse(t *testing.T) {
	_, nw := netFor(t, 24, Config{Shape: [3]int{2, 3, 4}})
	for idx := 0; idx < 24*6; idx++ {
		from, to := nw.linkEnds(idx)
		if from != idx/6 {
			t.Fatalf("linkEnds(%d) from = %d", idx, from)
		}
		// The reverse link (same dimension, opposite direction) from `to`
		// must land back on `from`.
		d := (idx % 6) / 2
		rev := to*6 + d*2 + 1 - idx%2
		back, home := nw.linkEnds(rev)
		if back != to || home != from {
			t.Fatalf("linkEnds(%d) = (%d,%d) but reverse %d = (%d,%d)", idx, from, to, rev, back, home)
		}
	}
}

// TestUncarvedPositionsDigestAsFresh pins that a torus position whose record
// was never carved reads exactly as a carved, untouched one. A 60-node job on
// a 4x4x4 torus (four positions unpopulated) runs an incast into node 0
// under a storm there: both z links into node 0 are hard-failed, so
// messages stall in front of them; a failed x link reroutes others; one link
// is degraded; and a crashed node drops what it sends and receives. The run
// stops at a horizon with messages in flight. Carving every remaining
// position must leave the checkpoint section, Stats and every per-node
// reader unchanged.
func TestUncarvedPositionsDigestAsFresh(t *testing.T) {
	const n = 60
	e := sim.New()
	inj := faults.NewInjector(e, n, faults.MustParseSpec("link:0-1@t=0s@for=1ms,link:16-0@t=0s@for=1ms,link:48-0@t=0s@for=1ms,degrade:4-0@t=0s@bw=0.5,node:9@t=0s,storm:0@t=0s@for=1ms@bw=0.5"))
	nw := New(e, n, Config{Shape: [3]int{4, 4, 4}, Faults: inj})
	for src := 1; src < n; src += 2 {
		for k := range 3 {
			nw.SendArg(src, 0, 512*(k+1), func(any, bool) {}, nil)
		}
	}
	nw.SendArg(0, 9, 64, func(any, bool) {}, nil)
	if _, ok := e.RunUntil(20 * sim.Microsecond).(*sim.TimeLimitError); !ok {
		t.Fatal("the run drained before its horizon")
	}
	st := nw.Stats()
	if st.LinkStalls == 0 || st.NodeDrops == 0 {
		t.Fatalf("the horizon saw %+v; want stalled and dropped messages", st)
	}
	type reading struct {
		linkBusy, ejBusy sim.Time
		ejMsgs           uint64
	}
	read := func() (out []reading) {
		for v := range n {
			out = append(out, reading{nw.LinkBusy(v), nw.EjectionBusy(v), nw.EjectionMsgs(v)})
		}
		return out
	}
	uncarved := 0
	for p := range nw.Capacity() {
		if !nw.Carved(p) {
			uncarved++
		}
	}
	if uncarved == 0 {
		t.Fatal("every position carved at the horizon; want some untouched")
	}
	section, readings, hot := nw.CheckpointSection(), read(), nw.HottestEjection()
	for p := range nw.Capacity() {
		nw.at(p)
	}
	if got := nw.Stats(); got != st {
		t.Errorf("carving the %d uncarved positions changed Stats:\n got %+v\nwant %+v", uncarved, got, st)
	}
	if got := nw.CheckpointSection(); !bytes.Equal(got, section) {
		t.Errorf("carving the %d uncarved positions changed the fabric section", uncarved)
	}
	if got := read(); !slices.Equal(got, readings) {
		t.Errorf("carving the %d uncarved positions changed LinkBusy, EjectionBusy or EjectionMsgs", uncarved)
	}
	if got := nw.HottestEjection(); got != hot {
		t.Errorf("carving the %d uncarved positions moved the hottest ejection from %d to %d", uncarved, hot, got)
	}
}
