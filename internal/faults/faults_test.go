package faults

import (
	"strings"
	"testing"

	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Fault
	}{
		{"link:3-7@t=1ms", Fault{Kind: LinkFail, A: 3, B: 7, At: sim.Millisecond}},
		{"link:3-7@t=1ms@for=5ms", Fault{Kind: LinkFail, A: 3, B: 7, At: sim.Millisecond, For: 5 * sim.Millisecond}},
		{"cht:12@t=2ms", Fault{Kind: CHTStall, A: 12, B: -1, At: 2 * sim.Millisecond}},
		{"cht:0", Fault{Kind: CHTStall, A: 0, B: -1}},
		{"degrade:1-2@t=0s@for=5ms@bw=0.25",
			Fault{Kind: LinkDegrade, A: 1, B: 2, For: 5 * sim.Millisecond, Factor: 0.25}},
		{"flap:0-1@t=1ms@period=100us@for=2ms",
			Fault{Kind: LinkFlap, A: 0, B: 1, At: sim.Millisecond, For: 2 * sim.Millisecond, Period: 100 * sim.Microsecond}},
		{"flap:0-1", Fault{Kind: LinkFlap, A: 0, B: 1, For: 2 * sim.Millisecond, Period: 100 * sim.Microsecond}},
		{"node:5@t=1ms", Fault{Kind: NodeCrash, A: 5, B: -1, At: sim.Millisecond}},
		{"node:5@t=1ms@for=4ms", Fault{Kind: NodeCrash, A: 5, B: -1, At: sim.Millisecond, For: 4 * sim.Millisecond}},
		{"node:0", Fault{Kind: NodeCrash, A: 0, B: -1}},
		{"storm:0@t=1ms@for=4ms@bw=0.2@period=200us",
			Fault{Kind: Storm, A: 0, B: -1, At: sim.Millisecond, For: 4 * sim.Millisecond,
				Factor: 0.2, Period: 200 * sim.Microsecond}},
		// Bare storm picks up every default: bw 0.25, period 100us, a
		// finite 20-half-period window.
		{"storm:5", Fault{Kind: Storm, A: 5, B: -1, For: 2 * sim.Millisecond,
			Factor: 0.25, Period: 100 * sim.Microsecond}},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if len(spec.Faults) != 1 {
			t.Errorf("ParseSpec(%q): %d faults, want 1", c.in, len(spec.Faults))
			continue
		}
		if spec.Faults[0] != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, spec.Faults[0], c.want)
		}
	}
}

func TestParseSpecMulti(t *testing.T) {
	spec, err := ParseSpec("link:3-7@t=1ms,cht:12@t=2ms,rand:4@seed=42@for=8ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Faults) != 2 {
		t.Fatalf("got %d explicit faults, want 2", len(spec.Faults))
	}
	if spec.Rand == nil || spec.Rand.Count != 4 || spec.Rand.Seed != 42 || spec.Rand.Horizon != 8*sim.Millisecond {
		t.Fatalf("rand = %+v", spec.Rand)
	}
	if got := len(spec.Expand(9)); got != 6 {
		t.Fatalf("Expand produced %d faults, want 6", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"link",
		"link:3",
		"link:3-3",
		"link:3-x",
		"link:-1-2",
		"bogus:1-2",
		"cht:x",
		"cht:-4",
		"node:x",
		"node:-2",
		"node:1@bw=0.5",              // unknown clause for node
		"node:1-2",                   // node wants a single id, not a link pair
		"cht:1@t=1ms@t=2ms",          // duplicate clause
		"cht:1@wat=2ms",              // unknown clause
		"cht:1@t=",                   // empty value
		"link:1-2@t=-1ms",            // negative duration
		"degrade:1-2@t=0s",           // missing bw
		"degrade:1-2@bw=1.5",         // factor out of range
		"degrade:1-2@bw=0",           // factor out of range
		"flap:1-2@period=0s",         // zero period
		"flap:1-2@period=1us@for=1s", // toggle cap
		"storm:x",                    // bad storm target
		"storm:1-2",                  // storm wants a single node id
		"storm:0@bw=1.5",             // factor out of range
		"storm:0@bw=0",               // factor out of range
		"storm:0@period=0s",          // zero period
		"storm:0@period=1us@for=1s",  // toggle cap
		"rand:0@seed=1",
		"rand:4",                      // missing seed
		"rand:2@seed=1,rand:2@seed=2", // two rand batches
		"link:1-2@@t=1ms",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", in)
		}
	}
}

// TestParseSpecErrorsNameToken pins that grammar errors identify the
// offending token, not just the whole spec string.
func TestParseSpecErrorsNameToken(t *testing.T) {
	cases := []struct {
		in    string
		token string // must appear quoted in the error
	}{
		{"link", `"link"`},                  // missing-colon token
		{"bogus:1-2", `"bogus"`},            // unknown kind
		{"cht:x", `"x"`},                    // bad cht target
		{"node:1-2", `"1-2"`},               // bad node target
		{"storm:1-2", `"1-2"`},              // bad storm target
		{"storm:0@bw=1.5", `"1.5"`},         // out-of-range storm factor
		{"link:3", `"3"`},                   // malformed link target
		{"link:3-x", `"3-x"`},               // bad link endpoint
		{"rand:zero@seed=1", `"zero"`},      // bad rand count
		{"cht:1@wat=2ms", `"wat"`},          // unknown clause
		{"link:1-2@@t=1ms", `""`},           // empty clause
		{"cht:1@t=1ms@t=2ms", `"t"`},        // duplicate clause
		{"degrade:1-2@bw=1.5", `"1.5"`},     // out-of-range factor
		{"link:1-2@t=1x", "clause t"},       // bad duration names its clause
		{"link:1-2@for=-1ms", "clause for"}, // negative duration names its clause
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.token) {
			t.Errorf("ParseSpec(%q) error %q does not name token %s", c.in, err, c.token)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"link:3-7@t=1ms@for=5ms",
		"degrade:1-2@t=0s@for=5ms@bw=0.25",
		"flap:0-1@t=1ms@period=50us@for=2ms",
		"cht:12@t=2ms",
		"node:5@t=1ms@for=4ms",
		"node:0",
		"storm:0@t=1ms@for=4ms@bw=0.2@period=200us",
		"link:0-1@t=250us,cht:3,storm:2@t=1ms@for=2ms@bw=0.5@period=50us,rand:4@seed=-7@for=10ms",
	} {
		spec := MustParseSpec(in)
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Errorf("re-parse of %q (-> %q): %v", in, spec.String(), err)
			continue
		}
		if spec.String() != again.String() {
			t.Errorf("round trip of %q: %q != %q", in, spec.String(), again.String())
		}
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	a := RandomFaults(42, 16, 32, 10*sim.Millisecond)
	b := RandomFaults(42, 16, 32, 10*sim.Millisecond)
	if len(a) != 32 {
		t.Fatalf("got %d faults, want 32", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, f := range a {
		if f.At < 0 || f.At >= 10*sim.Millisecond {
			t.Errorf("fault %d activation %v outside horizon", i, f.At)
		}
		if f.Kind != CHTStall && (f.A == f.B || f.A < 0 || f.B < 0 || f.A >= 16 || f.B >= 16) {
			t.Errorf("fault %d has bad link endpoints: %+v", i, f)
		}
		if f.Kind == LinkFlap && (f.Period <= 0 || f.For <= 0) {
			t.Errorf("flap %d must have finite window and positive period: %+v", i, f)
		}
		if f.Kind == LinkDegrade && (f.Factor <= 0 || f.Factor >= 1) {
			t.Errorf("degrade %d factor out of range: %+v", i, f)
		}
	}
}

func TestInjectorLinkLifecycle(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 9, MustParseSpec("link:3-7@t=1ms@for=2ms,degrade:1-2@t=0s@for=4ms@bw=0.25"))
	type probe struct {
		at       sim.Time
		down     bool
		factor12 float64
	}
	var got []probe
	for _, at := range []sim.Time{0, 500 * sim.Microsecond, 1500 * sim.Microsecond, 3500 * sim.Microsecond, 5 * sim.Millisecond} {
		at := at
		eng.At(at, func() {
			got = append(got, probe{at, in.LinkDown(7, 3), in.LinkFactor(2, 1)})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []probe{
		{0, false, 0.25},
		{500 * sim.Microsecond, false, 0.25},
		{1500 * sim.Microsecond, true, 0.25},
		{3500 * sim.Microsecond, false, 0.25},
		{5 * sim.Millisecond, false, 1},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if in.Active() != 0 {
		t.Errorf("Active = %d after all repairs", in.Active())
	}
}

func TestInjectorFlapToggles(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 4, MustParseSpec("flap:0-1@t=1ms@period=100us@for=250us"))
	var states []bool
	for _, at := range []sim.Time{999 * sim.Microsecond, 1050 * sim.Microsecond, 1150 * sim.Microsecond,
		1249 * sim.Microsecond, 1300 * sim.Microsecond} {
		at := at
		eng.At(at, func() { states = append(states, in.LinkDown(0, 1)) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if states[i] != want[i] {
			t.Errorf("flap state %d = %v, want %v (all: %v)", i, states[i], want[i], states)
		}
	}
}

// TestInjectorLinkFaultsCount: LinkFaults counts the pairs hard-failed plus
// the pairs degraded, through a flap overlapping a fail on one pair (the
// pair counts once while either holds it down), a degrade of that pair, a
// permanent degrade of another and a node crash (no link fault); it is 0
// exactly when every link reads healthy.
func TestInjectorLinkFaultsCount(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 6, MustParseSpec("flap:0-1@t=1ms@period=100us@for=250us,link:1-0@t=1050us@for=200us,"+
		"degrade:0-1@t=1100us@for=300us@bw=0.5,degrade:2-3@t=2ms@bw=0.5,node:4@t=500us@for=1ms"))
	us := sim.Microsecond
	want := map[sim.Time]int{0: 0, 600 * us: 0, 1020 * us: 1, 1060 * us: 1, 1120 * us: 2, 1220 * us: 2,
		1260 * us: 1, 1500 * us: 0, 2500 * us: 1}
	got := map[sim.Time]int{}
	for at := range want {
		eng.At(at, func() {
			got[at] = in.LinkFaults()
			healthy := true
			for a := 0; a < 6; a++ {
				for b := a + 1; b < 6; b++ {
					healthy = healthy && !in.LinkDown(a, b) && in.LinkFactor(a, b) == 1
				}
			}
			if healthy != (got[at] == 0) {
				t.Errorf("t=%v: LinkFaults = %d, every link healthy: %v", at, got[at], healthy)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for at, n := range want {
		if got[at] != n {
			t.Errorf("t=%v: LinkFaults = %d, want %d", at, got[at], n)
		}
	}
}

func TestInjectorStormBursts(t *testing.T) {
	// A storm opens burst windows every other half-period, like flap, but
	// stretches the node's ejection serialization (1/bw) instead of cutting a
	// link — and it must never read as a crash, or membership would arm.
	eng := sim.New()
	in := NewInjector(eng, 4, MustParseSpec("storm:2@t=1ms@period=100us@for=250us@bw=0.25"))
	if in.HasNodeFaults() {
		t.Fatal("a storm must not count as a node fault")
	}
	type probe struct {
		factor float64
		down   bool
	}
	var got []probe
	for _, at := range []sim.Time{999 * sim.Microsecond, 1050 * sim.Microsecond, 1150 * sim.Microsecond,
		1249 * sim.Microsecond, 1300 * sim.Microsecond} {
		at := at
		eng.At(at, func() { got = append(got, probe{in.StormFactor(2), in.NodeDown(2)}) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []probe{{1, false}, {4, false}, {1, false}, {4, false}, {1, false}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
	if in.StormFactor(1) != 1 {
		t.Error("storm leaked onto an unfaulted node")
	}
	if in.Active() != 0 {
		t.Errorf("Active = %d after the storm window closed", in.Active())
	}
}

func TestInjectorCHTStallAndRepair(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 9, MustParseSpec("cht:2@t=1ms@for=3ms"))
	if !in.AwaitRepair(2, nil) {
		t.Error("AwaitRepair reported a stall on a healthy CHT")
	}
	// A step process, as the CHT is: it asks mid-stall, is parked on the
	// repair, and asks again when resumed.
	idle := sim.NewQueue[int](eng, "idle")
	started := false
	var refusedAt, releasedAt sim.Time
	eng.SpawnStepOn(2, "cht", 2, func(p *sim.Proc) {
		if !started {
			started = true
			p.Sleep(2 * sim.Millisecond)
			return
		}
		if !in.AwaitRepair(2, p) {
			refusedAt = p.Now()
			return
		}
		releasedAt = p.Now()
		idle.Poll(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if refusedAt != 2*sim.Millisecond || releasedAt != 4*sim.Millisecond {
		t.Errorf("AwaitRepair refused at %v and released at %v, want 2ms and 4ms", refusedAt, releasedAt)
	}
}

func TestInjectorPermanentStallParksForever(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 4, MustParseSpec("cht:1@t=0s"))
	calls := 0
	eng.SpawnStepOn(1, "cht", 1, func(p *sim.Proc) {
		if calls++; calls == 1 {
			p.Sleep(sim.Microsecond)
		} else if in.AwaitRepair(1, p) {
			t.Error("permanent stall released its waiter")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("daemon parked on a permanent stall must not fail the run: %v", err)
	}
	if calls != 2 {
		t.Errorf("step ran %d times, want 2 (start, then parked for good)", calls)
	}
	eng.Shutdown()
}

func TestRandomNodeFaultsDeterministic(t *testing.T) {
	a := RandomNodeFaults(7, 16, 4, 10*sim.Millisecond)
	b := RandomNodeFaults(7, 16, 4, 10*sim.Millisecond)
	if len(a) != 4 {
		t.Fatalf("got %d faults, want 4", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		f := a[i]
		if f.Kind != NodeCrash || f.B != -1 {
			t.Errorf("fault %d is not a node crash: %+v", i, f)
		}
		if f.A < 0 || f.A >= 16 {
			t.Errorf("fault %d victim %d out of range", i, f.A)
		}
		if seen[f.A] {
			t.Errorf("victim %d crashed twice", f.A)
		}
		seen[f.A] = true
		if f.At <= 0 || f.At >= 10*sim.Millisecond {
			t.Errorf("fault %d activation %v outside horizon", i, f.At)
		}
	}
	// The victim count is capped at half the nodes.
	if got := len(RandomNodeFaults(7, 8, 100, 0)); got != 4 {
		t.Errorf("victim cap: got %d faults for 8 nodes, want 4", got)
	}
}

func TestInjectorNodeCrashLifecycle(t *testing.T) {
	eng := sim.New()
	in := NewInjector(eng, 9, MustParseSpec("node:4@t=1ms@for=2ms,node:7@t=2ms"))
	if !in.HasNodeFaults() {
		t.Fatal("HasNodeFaults = false with two node: entries")
	}
	type change struct {
		node int
		down bool
		at   sim.Time
	}
	var changes []change
	in.OnNodeChange(func(n int, down bool) {
		changes = append(changes, change{n, down, eng.Now()})
	})
	var midDown, midUp bool
	eng.At(1500*sim.Microsecond, func() { midDown = in.NodeDown(4) })
	eng.At(3500*sim.Microsecond, func() { midUp = !in.NodeDown(4) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !midDown || !midUp {
		t.Errorf("NodeDown(4): mid-crash %v (want true), post-recover up %v (want true)", midDown, midUp)
	}
	if in.NodeDown(7) != true {
		t.Error("node 7's permanent crash not active at end of run")
	}
	want := []change{
		{4, true, sim.Millisecond},
		{7, true, 2 * sim.Millisecond},
		{4, false, 3 * sim.Millisecond},
	}
	if len(changes) != len(want) {
		t.Fatalf("OnNodeChange fired %d times, want %d: %+v", len(changes), len(want), changes)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Errorf("change %d = %+v, want %+v", i, changes[i], want[i])
		}
	}
	if at, ok := in.CrashedAt(4); !ok || at != sim.Millisecond {
		t.Errorf("CrashedAt(4) = %v, %v; want 1ms, true", at, ok)
	}
	if _, ok := in.CrashedAt(3); ok {
		t.Error("CrashedAt(3) reported a crash for a healthy node")
	}
}

func TestInjectorMetricsAndTrace(t *testing.T) {
	eng := sim.New()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	in := NewInjector(eng, 9, MustParseSpec("link:3-7@t=1ms@for=2ms,cht:2@t=0s"))
	in.Instrument(reg, tr, 5)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	in.FillMetrics()
	if v := reg.Counter("faults_injected_total", obs.L("kind", "link_fail")).Value(); v != 1 {
		t.Errorf("faults_injected_total{kind=link_fail} = %v, want 1", v)
	}
	if v := reg.Counter("faults_activations_total").Value(); v != 2 {
		t.Errorf("faults_activations_total = %v, want 2", v)
	}
	if v := reg.Counter("faults_repairs_total").Value(); v != 1 {
		t.Errorf("faults_repairs_total = %v, want 1 (the cht stall is permanent)", v)
	}
	if v := reg.Gauge("faults_active_peak").Value(); v != 2 {
		t.Errorf("faults_active_peak = %v, want 2", v)
	}
	var marks []string
	for _, ev := range tr.Events() {
		if ev.Cat == "fault" {
			marks = append(marks, ev.Name)
		}
	}
	joined := strings.Join(marks, "; ")
	for _, want := range []string{"link_fail 3-7 down", "link_fail 3-7 up", "cht_stall 2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace markers %q missing %q", joined, want)
		}
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if in.LinkDown(0, 1) || in.CHTStalled(0) || in.LinkFactor(0, 1) != 1 || in.LinkFaults() != 0 || in.Active() != 0 {
		t.Error("nil injector must report a healthy machine")
	}
	if in.NodeDown(0) || in.HasNodeFaults() {
		t.Error("nil injector must report no node crashes")
	}
	if _, ok := in.CrashedAt(0); ok {
		t.Error("nil injector reported a crash time")
	}
	in.OnNodeChange(func(int, bool) {})
	in.FillMetrics()
	in.Instrument(nil, nil, 0)
	if in.Faults() != nil {
		t.Error("nil injector has faults")
	}
}
