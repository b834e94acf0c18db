// Package faults is a deterministic, seed-driven fault-injection subsystem
// for the simulated XT5 reproduction. A fault schedule (Spec) is parsed from
// the compact scenario grammar the -faults CLI flags use, or generated
// pseudo-randomly from a seed, and an Injector attached to a simulation
// engine turns it into timed state transitions the other layers query:
//
//   - package fabric asks LinkDown/LinkFactor when routing and when
//     advancing a message hop by hop (fail-at-time, degrade-bandwidth and
//     transient-flap link models), and StormFactor when ejecting (storm:
//     hot-spot burst windows that stretch a node's ejection serialization);
//   - package armci asks CHTStalled when choosing a next hop and parks a
//     stalled helper thread on AwaitRepair (failed-intermediate model that
//     its timeout/retry/reroute machinery recovers from);
//   - both layers ask NodeDown for crash-stop node failures (node: entries):
//     the fabric drops traffic injected by or ejecting at a dead node, and
//     armci kills the node's CHT, in-flight ops and credit state atomically,
//     with heartbeat membership and topology self-healing recovering the
//     survivors (see docs/FAULTS.md).
//
// Everything is driven by virtual-time events, so faulted runs are exactly
// as repeatable as healthy ones. See docs/FAULTS.md for the fault model,
// grammar and recovery semantics.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"armcivt/internal/sim"
)

// Kind enumerates the fault models.
type Kind int

const (
	// LinkFail takes a physical torus link (both directions between two
	// adjacent-or-not node positions) hard down at a point in time,
	// optionally repairing it later.
	LinkFail Kind = iota
	// LinkDegrade multiplies a link's bandwidth by a factor in (0,1).
	LinkDegrade
	// LinkFlap toggles a link down/up with a fixed half-period over a
	// bounded window — the transient-error model.
	LinkFlap
	// CHTStall freezes a node's Communication Helper Thread: requests keep
	// arriving and buffering but nothing is served until repair.
	CHTStall
	// NodeCrash is a crash-stop node failure: the node's CHT, NIC queues and
	// in-flight operations die atomically at the activation time. A finite
	// for= window models crash-recover; 0 is a permanent crash.
	NodeCrash
	// Storm is a deterministic hot-spot burst: over a bounded window the
	// target node's ejection path alternates between burst (serialization
	// stretched by 1/bw, as if saturated by traffic from outside the
	// simulated job) and quiet half-periods. It degrades service without
	// killing anything: the incast stressor a hot spot's topology must
	// absorb.
	Storm
)

func (k Kind) String() string {
	switch k {
	case LinkFail:
		return "link_fail"
	case LinkDegrade:
		return "link_degrade"
	case LinkFlap:
		return "link_flap"
	case CHTStall:
		return "cht_stall"
	case NodeCrash:
		return "node_crash"
	case Storm:
		return "storm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// maxFlapToggles bounds how many down/up transitions one flap entry may
// expand to, so a parsed schedule cannot flood the event queue.
const maxFlapToggles = 4096

// Fault is one concrete scheduled fault.
type Fault struct {
	Kind Kind
	// A, B are the link endpoints (torus node positions); CHT and node
	// faults use A and leave B = -1.
	A, B int
	// At is when the fault activates.
	At sim.Time
	// For is how long it lasts; 0 means permanent (LinkFlap requires a
	// finite window and defaults it from Period).
	For sim.Time
	// Factor is LinkDegrade's bandwidth multiplier in (0,1); Storm reuses it
	// as the fraction of ejection bandwidth left to real traffic mid-burst.
	Factor float64
	// Period is the LinkFlap/Storm half-period: on for Period, off for Period.
	Period sim.Time
}

// RandSpec asks for Count pseudo-random faults drawn deterministically from
// Seed, activating within [0, Horizon).
type RandSpec struct {
	Count   int
	Seed    int64
	Horizon sim.Time // 0 selects DefaultRandHorizon
}

// DefaultRandHorizon is the activation window of rand: entries that do not
// specify one.
const DefaultRandHorizon = 10 * sim.Millisecond

// Spec is a parsed fault schedule: explicit faults plus an optional random
// batch expanded (against the run's node count) at injector-attach time.
type Spec struct {
	Faults []Fault
	Rand   *RandSpec
}

// ParseSpec parses the scenario-flag grammar. A spec is comma-separated
// entries; each entry is kind:target followed by @key=value clauses:
//
//	link:3-7@t=1ms              link 3-7 fails at t=1ms, permanently
//	link:3-7@t=1ms@for=5ms      ... and repairs 5ms later
//	degrade:1-2@t=0s@bw=0.25    link 1-2 drops to 25% bandwidth at t=0
//	flap:0-1@t=1ms@period=100us@for=2ms
//	cht:12@t=2ms@for=5ms        node 12's CHT stalls for 5ms
//	node:5@t=1ms                node 5 crash-stops at t=1ms, permanently
//	node:5@t=1ms@for=4ms        ... and recovers 4ms later
//	storm:0@t=1ms@for=4ms@bw=0.2@period=200us
//	                            node 0's ejection path bursts down to 20%
//	                            bandwidth in 200us on/off windows for 4ms
//	rand:8@seed=42@for=10ms     8 seeded random faults within 10ms
//
// Durations use Go syntax (time.ParseDuration). Clause keys: t (activation
// time, default 0), for (duration, default permanent; storm defaults to 20
// half-periods like flap), bw (degrade/storm factor in (0,1); storm defaults
// 0.25), period (flap/storm half-period, default 100us), seed (rand,
// required).
func ParseSpec(s string) (*Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("faults: empty spec")
	}
	spec := &Spec{}
	for _, entry := range strings.Split(s, ",") {
		if err := spec.parseEntry(strings.TrimSpace(entry)); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// MustParseSpec is ParseSpec but panics on error, for tests and literals.
func MustParseSpec(s string) *Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

func (s *Spec) parseEntry(entry string) error {
	if entry == "" {
		return fmt.Errorf("faults: empty entry")
	}
	parts := strings.Split(entry, "@")
	kindStr, targetStr, ok := strings.Cut(parts[0], ":")
	if !ok {
		return fmt.Errorf("faults: entry %q: token %q: want kind:target", entry, parts[0])
	}
	clauses := map[string]string{}
	for _, c := range parts[1:] {
		k, v, ok := strings.Cut(c, "=")
		if !ok || k == "" || v == "" {
			return fmt.Errorf("faults: entry %q: bad clause %q (want key=value)", entry, c)
		}
		if _, dup := clauses[k]; dup {
			return fmt.Errorf("faults: entry %q: duplicate clause %q", entry, k)
		}
		clauses[k] = v
	}
	used := map[string]bool{}
	dur := func(key string, def sim.Time) (sim.Time, error) {
		v, ok := clauses[key]
		if !ok {
			return def, nil
		}
		used[key] = true
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("faults: entry %q: clause %s: %v", entry, key, err)
		}
		if d < 0 {
			return 0, fmt.Errorf("faults: entry %q: clause %s: negative duration", entry, key)
		}
		return sim.Time(d), nil
	}
	checkUnused := func() error {
		for k := range clauses {
			if !used[k] {
				return fmt.Errorf("faults: entry %q: unknown clause %q", entry, k)
			}
		}
		return nil
	}

	if kindStr == "rand" {
		count, err := strconv.Atoi(targetStr)
		if err != nil || count < 1 {
			return fmt.Errorf("faults: entry %q: target %q: rand wants a positive count", entry, targetStr)
		}
		seedStr, ok := clauses["seed"]
		if !ok {
			return fmt.Errorf("faults: entry %q: rand requires @seed=N", entry)
		}
		used["seed"] = true
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return fmt.Errorf("faults: entry %q: bad seed %q", entry, seedStr)
		}
		horizon, err := dur("for", 0)
		if err != nil {
			return err
		}
		if err := checkUnused(); err != nil {
			return err
		}
		if s.Rand != nil {
			return fmt.Errorf("faults: entry %q: at most one rand: entry per spec", entry)
		}
		s.Rand = &RandSpec{Count: count, Seed: seed, Horizon: horizon}
		return nil
	}

	f := Fault{B: -1}
	switch kindStr {
	case "link":
		f.Kind = LinkFail
	case "degrade":
		f.Kind = LinkDegrade
	case "flap":
		f.Kind = LinkFlap
	case "cht":
		f.Kind = CHTStall
	case "node":
		f.Kind = NodeCrash
	case "storm":
		f.Kind = Storm
	default:
		return fmt.Errorf("faults: entry %q: unknown kind %q (want link, degrade, flap, cht, node, storm or rand)", entry, kindStr)
	}

	if f.Kind == CHTStall || f.Kind == NodeCrash || f.Kind == Storm {
		n, err := strconv.Atoi(targetStr)
		if err != nil || n < 0 {
			return fmt.Errorf("faults: entry %q: target %q: %s wants a node id", entry, targetStr, kindStr)
		}
		f.A = n
	} else {
		aStr, bStr, ok := strings.Cut(targetStr, "-")
		if !ok {
			return fmt.Errorf("faults: entry %q: target %q: link target wants A-B", entry, targetStr)
		}
		a, errA := strconv.Atoi(aStr)
		b, errB := strconv.Atoi(bStr)
		if errA != nil || errB != nil || a < 0 || b < 0 {
			return fmt.Errorf("faults: entry %q: bad link endpoints %q", entry, targetStr)
		}
		if a == b {
			return fmt.Errorf("faults: entry %q: link endpoints must differ", entry)
		}
		f.A, f.B = a, b
	}

	var err error
	if f.At, err = dur("t", 0); err != nil {
		return err
	}
	if f.For, err = dur("for", 0); err != nil {
		return err
	}
	if f.Kind == LinkDegrade {
		v, ok := clauses["bw"]
		if !ok {
			return fmt.Errorf("faults: entry %q: degrade requires @bw=F in (0,1)", entry)
		}
		used["bw"] = true
		f.Factor, err = strconv.ParseFloat(v, 64)
		if err != nil || f.Factor <= 0 || f.Factor >= 1 {
			return fmt.Errorf("faults: entry %q: degrade factor must be in (0,1), got %q", entry, v)
		}
	}
	if f.Kind == LinkFlap {
		if f.Period, err = dur("period", 100*sim.Microsecond); err != nil {
			return err
		}
		if f.Period <= 0 {
			return fmt.Errorf("faults: entry %q: flap period must be positive", entry)
		}
		if f.For == 0 {
			f.For = 20 * f.Period // flapping must end; default a finite window
		}
		if toggles := int64(f.For / f.Period); toggles > maxFlapToggles {
			return fmt.Errorf("faults: entry %q: %d flap toggles exceed the %d cap (shorten for= or lengthen period=)",
				entry, toggles, maxFlapToggles)
		}
	}
	if f.Kind == Storm {
		if v, ok := clauses["bw"]; ok {
			used["bw"] = true
			f.Factor, err = strconv.ParseFloat(v, 64)
			if err != nil || f.Factor <= 0 || f.Factor >= 1 {
				return fmt.Errorf("faults: entry %q: storm factor must be in (0,1), got %q", entry, v)
			}
		} else {
			f.Factor = 0.25
		}
		if f.Period, err = dur("period", 100*sim.Microsecond); err != nil {
			return err
		}
		if f.Period <= 0 {
			return fmt.Errorf("faults: entry %q: storm period must be positive", entry)
		}
		if f.For == 0 {
			f.For = 20 * f.Period // bursting must end; default a finite window
		}
		if toggles := int64(f.For / f.Period); toggles > maxFlapToggles {
			return fmt.Errorf("faults: entry %q: %d storm toggles exceed the %d cap (shorten for= or lengthen period=)",
				entry, toggles, maxFlapToggles)
		}
	}
	if err := checkUnused(); err != nil {
		return err
	}
	s.Faults = append(s.Faults, f)
	return nil
}

// String renders the spec back in the grammar ParseSpec accepts, canonically
// enough that ParseSpec(s.String()) reproduces the schedule.
func (s *Spec) String() string {
	var parts []string
	for _, f := range s.Faults {
		parts = append(parts, f.String())
	}
	if s.Rand != nil {
		e := fmt.Sprintf("rand:%d@seed=%d", s.Rand.Count, s.Rand.Seed)
		if s.Rand.Horizon > 0 {
			e += "@for=" + time.Duration(s.Rand.Horizon).String()
		}
		parts = append(parts, e)
	}
	return strings.Join(parts, ",")
}

// String renders one fault as a grammar entry.
func (f Fault) String() string {
	var b strings.Builder
	switch f.Kind {
	case LinkFail:
		fmt.Fprintf(&b, "link:%d-%d", f.A, f.B)
	case LinkDegrade:
		fmt.Fprintf(&b, "degrade:%d-%d", f.A, f.B)
	case LinkFlap:
		fmt.Fprintf(&b, "flap:%d-%d", f.A, f.B)
	case CHTStall:
		fmt.Fprintf(&b, "cht:%d", f.A)
	case NodeCrash:
		fmt.Fprintf(&b, "node:%d", f.A)
	case Storm:
		fmt.Fprintf(&b, "storm:%d", f.A)
	}
	fmt.Fprintf(&b, "@t=%s", time.Duration(f.At))
	if f.For > 0 {
		fmt.Fprintf(&b, "@for=%s", time.Duration(f.For))
	}
	if f.Kind == LinkDegrade || f.Kind == Storm {
		fmt.Fprintf(&b, "@bw=%s", strconv.FormatFloat(f.Factor, 'g', -1, 64))
	}
	if f.Kind == LinkFlap || f.Kind == Storm {
		fmt.Fprintf(&b, "@period=%s", time.Duration(f.Period))
	}
	return b.String()
}

// Expand resolves the schedule against a concrete node count: explicit
// faults verbatim plus the deterministic expansion of any rand: batch.
func (s *Spec) Expand(nodes int) []Fault {
	if s == nil {
		return nil
	}
	out := append([]Fault(nil), s.Faults...)
	if s.Rand != nil {
		out = append(out, RandomFaults(s.Rand.Seed, nodes, s.Rand.Count, s.Rand.Horizon)...)
	}
	return out
}

// RandomFaults draws count faults deterministically from seed: a mix of link
// failures, degradations, flaps and CHT stalls over nodes in [0, nodes),
// activating within [0, horizon) (0 selects DefaultRandHorizon). Most are
// transient; roughly a quarter are permanent. The property tests drive LDF
// resilience with these schedules.
// RandomNodeFaults draws count crash-stop node faults deterministically from
// seed: distinct victims in [0, nodes), crashing within the first half of
// [0, horizon) so survivors have time to detect and heal before the run
// ends. Roughly half recover within the horizon; the rest stay down. The
// chaos harness (figures.Chaos) drives its randomized schedules with these.
func RandomNodeFaults(seed int64, nodes, count int, horizon sim.Time) []Fault {
	if horizon <= 0 {
		horizon = DefaultRandHorizon
	}
	if count > nodes/2 {
		count = nodes / 2 // keep a majority of survivors
	}
	rng := rand.New(sim.NewSource(seed))
	victims := rng.Perm(nodes)[:count]
	out := make([]Fault, 0, count)
	for _, v := range victims {
		f := Fault{
			Kind: NodeCrash,
			A:    v,
			B:    -1,
			At:   sim.Time(int64(horizon)/10 + rng.Int63n(int64(horizon)/2+1)),
		}
		if rng.Intn(2) == 0 {
			f.For = sim.Time(int64(horizon)/5 + rng.Int63n(int64(horizon)/4+1))
		}
		out = append(out, f)
	}
	return out
}

func RandomFaults(seed int64, nodes, count int, horizon sim.Time) []Fault {
	if horizon <= 0 {
		horizon = DefaultRandHorizon
	}
	if nodes < 1 {
		nodes = 1
	}
	rng := rand.New(sim.NewSource(seed))
	out := make([]Fault, 0, count)
	for i := 0; i < count; i++ {
		f := Fault{B: -1, At: sim.Time(rng.Int63n(int64(horizon)))}
		pick := rng.Intn(100)
		switch {
		case pick < 30 && nodes >= 2:
			f.Kind = LinkFail
		case pick < 55 && nodes >= 2:
			f.Kind = LinkDegrade
			f.Factor = 0.1 + 0.8*rng.Float64()
		case pick < 75 && nodes >= 2:
			f.Kind = LinkFlap
			f.Period = sim.Time(int64(horizon)/200 + 1)
		default:
			f.Kind = CHTStall
		}
		if f.Kind != CHTStall {
			f.A = rng.Intn(nodes)
			f.B = rng.Intn(nodes - 1)
			if f.B >= f.A {
				f.B++
			}
		} else {
			f.A = rng.Intn(nodes)
		}
		// Transient by default; every fourth or so is permanent (except
		// flaps, whose window must be finite).
		if f.Kind == LinkFlap || rng.Intn(4) != 0 {
			f.For = sim.Time(int64(horizon)/10 + rng.Int63n(int64(horizon)/2+1))
		}
		out = append(out, f)
	}
	return out
}
