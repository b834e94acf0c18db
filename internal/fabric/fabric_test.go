package fabric

import (
	"testing"
	"testing/quick"

	"armcivt/internal/sim"
)

func netFor(t *testing.T, n int, cfg Config) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.New()
	return e, New(e, n, cfg)
}

func TestTorusShapeCovers(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 27, 64, 100, 256, 1024, 5000} {
		s := TorusShape(n)
		if s[0]*s[1]*s[2] < n {
			t.Errorf("TorusShape(%d) = %v does not cover", n, s)
		}
	}
	if s := TorusShape(27); s != [3]int{3, 3, 3} {
		t.Errorf("TorusShape(27) = %v, want {3 3 3}", s)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig(64)
	if c.LinkBandwidth <= 0 || c.NICBandwidth <= 0 || c.HopLatency <= 0 || c.SoftwareOverhead <= 0 {
		t.Errorf("DefaultConfig has zero fields: %+v", c)
	}
	if c.LinkBandwidth < c.NICBandwidth {
		t.Errorf("link bandwidth %v below NIC bandwidth %v", c.LinkBandwidth, c.NICBandwidth)
	}
}

func TestCoordRoundTrip(t *testing.T) {
	_, nw := netFor(t, 24, Config{Shape: [3]int{2, 3, 4}})
	seen := map[[3]int]bool{}
	for v := 0; v < 24; v++ {
		c := nw.Coord(v)
		if seen[c] {
			t.Errorf("duplicate coord %v", c)
		}
		seen[c] = true
	}
}

func TestHopsSymmetricAndWraps(t *testing.T) {
	_, nw := netFor(t, 64, Config{Shape: [3]int{4, 4, 4}})
	for a := 0; a < 64; a += 5 {
		for b := 0; b < 64; b += 3 {
			if nw.Hops(a, b) != nw.Hops(b, a) {
				t.Errorf("asymmetric hops %d,%d", a, b)
			}
		}
	}
	// Coord 0 and coord 3 on a 4-ring are 1 apart via wraparound.
	a := 0 // (0,0,0)
	b := 3 // (3,0,0)
	if h := nw.Hops(a, b); h != 1 {
		t.Errorf("wraparound hops = %d, want 1", h)
	}
	if h := nw.Hops(0, 0); h != 0 {
		t.Errorf("self hops = %d", h)
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	_, nw := netFor(t, 60, Config{Shape: [3]int{4, 4, 4}})
	for a := 0; a < 60; a += 7 {
		for b := 0; b < 60; b += 5 {
			if got := len(nw.route(a, b, nil)); got != nw.Hops(a, b) {
				t.Errorf("route(%d,%d) length %d != Hops %d", a, b, got, nw.Hops(a, b))
			}
		}
	}
}

func TestSendUncontendedLatency(t *testing.T) {
	cfg := Config{
		Shape:            [3]int{4, 4, 4},
		LinkBandwidth:    10,
		NICBandwidth:     2,
		HopLatency:       100,
		SoftwareOverhead: 1000,
	}
	e, nw := netFor(t, 64, cfg)
	size := 1000
	var at sim.Time
	nw.SendArg(0, 1, size, func(any, bool) { at = e.Now() }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// overhead + injNIC + hop + link + hop + ejNIC
	want := sim.Time(1000) + 500 + 100 + 100 + 100 + 500
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestSendLoopback(t *testing.T) {
	e, nw := netFor(t, 8, Config{SoftwareOverhead: 700})
	var at sim.Time
	nw.SendArg(3, 3, 1<<20, func(any, bool) { at = e.Now() }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 700 {
		t.Errorf("loopback delivered at %v, want software overhead only", at)
	}
}

func TestSendLatencyGrowsWithDistance(t *testing.T) {
	cfg := Config{Shape: [3]int{8, 8, 4}, LinkBandwidth: 10, NICBandwidth: 2, HopLatency: 100, SoftwareOverhead: 1000}
	e, nw := netFor(t, 256, cfg)
	var near, far sim.Time
	nw.SendArg(0, 1, 100, func(any, bool) { near = e.Now() }, nil)
	e.At(1_000_000, func() {
		base := e.Now()
		nw.SendArg(0, 255, 100, func(any, bool) { far = e.Now() - base }, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if far <= near {
		t.Errorf("far delivery %v not slower than near %v", far, near)
	}
	hopsDelta := nw.Hops(0, 255) - nw.Hops(0, 1)
	if want := sim.Time(hopsDelta) * (100 + 10); far-near != want {
		t.Errorf("distance penalty = %v, want %v (%d extra hops)", far-near, want, hopsDelta)
	}
}

func TestEjectionSerializationUnderFanIn(t *testing.T) {
	// Many senders to one node: deliveries must be serialized by the
	// victim's ejection bandwidth, the physical mechanism behind Figure 2's
	// flat-tree hot-spot.
	cfg := Config{Shape: [3]int{4, 4, 2}, LinkBandwidth: 1000, NICBandwidth: 1, HopLatency: 1, SoftwareOverhead: 1}
	e, nw := netFor(t, 32, cfg)
	size := 1000 // 1000ns of ejection serialization each
	var deliveries []sim.Time
	for s := 1; s < 32; s++ {
		nw.SendArg(s, 0, size, func(any, bool) { deliveries = append(deliveries, e.Now()) }, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 31 {
		t.Fatalf("got %d deliveries", len(deliveries))
	}
	span := deliveries[len(deliveries)-1] - deliveries[0]
	if span < sim.Time(30*size) {
		t.Errorf("deliveries span %v, want >= %v (ejection-serialized)", span, sim.Time(30*size))
	}
	if nw.EjectionMsgs(0) != 31 {
		t.Errorf("EjectionMsgs = %d", nw.EjectionMsgs(0))
	}
	if nw.EjectionBusy(0) != sim.Time(31*size) {
		t.Errorf("EjectionBusy = %v", nw.EjectionBusy(0))
	}
	if nw.Stats().MaxQueueWait == 0 {
		t.Error("no queue wait recorded under fan-in")
	}
}

func TestFIFOOrderPreservedPerLink(t *testing.T) {
	cfg := Config{Shape: [3]int{4, 1, 1}, LinkBandwidth: 1, NICBandwidth: 1, HopLatency: 10, SoftwareOverhead: 10}
	e, nw := netFor(t, 4, cfg)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(sim.Time(i), func() {
			nw.SendArg(0, 1, 100, func(any, bool) { order = append(order, i) }, nil)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("deliveries out of order: %v", order)
		}
	}
}

func TestInjectionSerializationAtSender(t *testing.T) {
	// One sender spraying many nodes is limited by its injection port.
	cfg := Config{Shape: [3]int{4, 4, 2}, LinkBandwidth: 1000, NICBandwidth: 1, HopLatency: 1, SoftwareOverhead: 1}
	e, nw := netFor(t, 32, cfg)
	var last sim.Time
	for d := 1; d < 32; d++ {
		nw.SendArg(0, d, 1000, func(any, bool) {
			if e.Now() > last {
				last = e.Now()
			}
		}, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last < sim.Time(31*1000) {
		t.Errorf("last delivery %v, want >= 31000 (injection-serialized)", last)
	}
}

func TestStatsCounters(t *testing.T) {
	e, nw := netFor(t, 8, Config{})
	nw.SendArg(0, 1, 100, func(any, bool) {}, nil)
	nw.SendArg(1, 2, 200, func(any, bool) {}, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Errorf("stats = %+v", st)
	}
	if nw.LinkBusy(0) == 0 {
		t.Error("no link busy time recorded at node 0")
	}
}

func TestSendPanicsOnBadArgs(t *testing.T) {
	e, nw := netFor(t, 4, Config{})
	_ = e
	for _, fn := range []func(){
		func() { nw.SendArg(-1, 0, 1, func(any, bool) {}, nil) },
		func() { nw.SendArg(0, 4, 1, func(any, bool) {}, nil) },
		func() { nw.SendArg(0, 1, -1, func(any, bool) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Send did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnTinyShape(t *testing.T) {
	e := sim.New()
	defer func() {
		if recover() == nil {
			t.Error("undersized shape did not panic")
		}
	}()
	New(e, 100, Config{Shape: [3]int{2, 2, 2}})
}

// Property: every message is delivered exactly once and never before the
// zero-load bound.
func TestPropertyDeliveryBounds(t *testing.T) {
	f := func(seed int64) bool {
		e := sim.New()
		e.Seed(seed)
		cfg := Config{Shape: [3]int{4, 4, 4}, LinkBandwidth: 8, NICBandwidth: 2, HopLatency: 50, SoftwareOverhead: 500}
		nw := New(e, 64, cfg)
		rng := e.Rand()
		n := 20 + rng.Intn(30)
		delivered := 0
		okAll := true
		for i := 0; i < n; i++ {
			src := rng.Intn(64)
			dst := rng.Intn(64)
			size := 1 + rng.Intn(4096)
			sendAt := sim.Time(rng.Intn(10000))
			e.At(sendAt, func() {
				start := e.Now()
				hops := nw.Hops(src, dst)
				minLat := cfg.SoftwareOverhead
				if src != dst {
					minLat += sim.Time(float64(size)/cfg.NICBandwidth)*2 +
						sim.Time(hops)*(cfg.HopLatency+sim.Time(float64(size)/cfg.LinkBandwidth)) +
						cfg.HopLatency
				}
				nw.SendArg(src, dst, size, func(any, bool) {
					delivered++
					if e.Now()-start < minLat {
						okAll = false
					}
				}, nil)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return okAll && delivered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStreamOverloadThrottlesHotSpot(t *testing.T) {
	// With more distinct sources than StreamLimit queued at one ejection
	// port, per-message service must slow down (the BEER-throttling model).
	mk := func(senders int) sim.Time {
		e := sim.New()
		cfg := Config{
			Shape: [3]int{8, 8, 2}, LinkBandwidth: 1000, NICBandwidth: 1,
			HopLatency: 1, SoftwareOverhead: 1, StreamLimit: 4, StreamPenalty: 0.5,
		}
		nw := New(e, 128, cfg)
		var last sim.Time
		for s := 1; s <= senders; s++ {
			nw.SendArg(s, 0, 1000, func(any, bool) {
				if e.Now() > last {
					last = e.Now()
				}
			}, nil)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	t8 := mk(8)
	t16 := mk(16)
	// Without throttling, 16 senders would take exactly 2x the 8-sender
	// time; throttling must make it superlinear.
	if float64(t16) < 2.2*float64(t8) {
		t.Errorf("no superlinear degradation: 8 senders %v, 16 senders %v", t8, t16)
	}
}

func TestStreamStatTracksDistinctSources(t *testing.T) {
	e := sim.New()
	cfg := Config{Shape: [3]int{4, 4, 2}, LinkBandwidth: 1000, NICBandwidth: 1, HopLatency: 1, SoftwareOverhead: 1, StreamLimit: 64, StreamPenalty: 0.1}
	nw := New(e, 32, cfg)
	for s := 1; s <= 10; s++ {
		nw.SendArg(s, 0, 5000, func(any, bool) {}, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nw.Stats().MaxStreams; got < 5 || got > 10 {
		t.Errorf("MaxStreams = %d, want within (5,10]", got)
	}
}

func TestSingleSourceNeverThrottled(t *testing.T) {
	// One source streaming to one destination stays at full rate no matter
	// how many messages are queued.
	e := sim.New()
	cfg := Config{Shape: [3]int{2, 2, 1}, LinkBandwidth: 1000, NICBandwidth: 1, HopLatency: 1, SoftwareOverhead: 1, StreamLimit: 1, StreamPenalty: 10}
	nw := New(e, 4, cfg)
	var last sim.Time
	n := 20
	for i := 0; i < n; i++ {
		nw.SendArg(1, 0, 1000, func(any, bool) { last = e.Now() }, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All messages from one source: ejection time = n * size/bw plus fixed
	// per-path latency, no penalty.
	if last > sim.Time(n*1000)+5000 {
		t.Errorf("single-source stream throttled: finished at %v", last)
	}
}

func TestBlueGenePConfig(t *testing.T) {
	c := BlueGenePConfig(64)
	x := DefaultConfig(64)
	if c.LinkBandwidth >= x.LinkBandwidth {
		t.Errorf("BG/P links (%v) not slower than XT5 (%v)", c.LinkBandwidth, x.LinkBandwidth)
	}
	if c.SoftwareOverhead >= x.SoftwareOverhead {
		t.Errorf("BG/P software overhead (%v) not below XT5 (%v)", c.SoftwareOverhead, x.SoftwareOverhead)
	}
	if c.StreamLimit <= x.StreamLimit {
		t.Errorf("BG/P stream limit (%d) not above XT5 (%d)", c.StreamLimit, x.StreamLimit)
	}
	if c.Shape[0]*c.Shape[1]*c.Shape[2] < 64 {
		t.Errorf("shape %v does not cover 64 nodes", c.Shape)
	}
	// It must drive a network end to end.
	e := sim.New()
	nw := New(e, 64, c)
	delivered := false
	nw.SendArg(0, 63, 4096, func(any, bool) { delivered = true }, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Error("message lost on BG/P fabric")
	}
}

func TestBulkTransferSlowerOnBlueGeneP(t *testing.T) {
	run := func(cfg Config) sim.Time {
		e := sim.New()
		nw := New(e, 8, cfg)
		var at sim.Time
		nw.SendArg(0, 5, 1<<20, func(any, bool) { at = e.Now() }, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	xt5 := run(DefaultConfig(8))
	bgp := run(BlueGenePConfig(8))
	if bgp < 2*xt5 {
		t.Errorf("1MB on BG/P (%v) not clearly slower than XT5 (%v)", bgp, xt5)
	}
}
