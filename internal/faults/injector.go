package faults

import (
	"fmt"
	"sort"

	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// Injector materializes a Spec on a simulation engine: it schedules the
// activation/repair transitions as virtual-time events and answers point
// queries from the fabric and runtime layers. All state changes happen in
// engine context, so queries from process context always see a consistent
// snapshot and faulted runs stay deterministic.
//
// A nil *Injector is valid and reports a healthy machine from every query,
// which is how the disabled path stays bit-identical: callers guard with one
// nil check and never branch otherwise.
type Injector struct {
	eng    *sim.Engine
	nodes  int
	faults []Fault

	// linkDown counts active hard failures per unordered node pair (a flap
	// overlapping a fail must not "repair" the link early); an entry stays
	// at 0 after its repair, so linksDown counts the pairs above 0.
	linkDown  map[[2]int]int
	linksDown int
	// linkFactor is the active bandwidth multiplier per unordered pair.
	linkFactor map[[2]int]float64
	// chtDown counts active stalls per node; repair[node] is the event a
	// parked CHT waits on, recreated on each 0->1 transition.
	chtDown map[int]int
	repair  map[int]*sim.Event
	// nodeDown counts active crash-stop failures per node; crashedAt records
	// the most recent crash instant (metrics: detection latency is measured
	// against it). onNode observers fire on every 0<->1 transition.
	nodeDown  map[int]int
	crashedAt map[int]sim.Time
	onNode    []func(node int, down bool)
	// stormDown counts open storm burst windows per node; stormFactor holds
	// the active ejection serialization stretch (1/bw) while any are open.
	stormDown   map[int]int
	stormFactor map[int]float64

	injected           map[Kind]int
	activations        uint64
	repairs            uint64
	active, peakActive int

	reg *obs.Registry
	tr  *obs.Tracer
	pid int
}

// NewInjector expands spec against nodes and schedules every transition on
// eng. A nil spec yields an injector with no faults (all queries healthy).
func NewInjector(eng *sim.Engine, nodes int, spec *Spec) *Injector {
	in := &Injector{
		eng:         eng,
		nodes:       nodes,
		faults:      spec.Expand(nodes),
		linkDown:    map[[2]int]int{},
		linkFactor:  map[[2]int]float64{},
		chtDown:     map[int]int{},
		repair:      map[int]*sim.Event{},
		nodeDown:    map[int]int{},
		crashedAt:   map[int]sim.Time{},
		stormDown:   map[int]int{},
		stormFactor: map[int]float64{},
		injected:    map[Kind]int{},
	}
	for _, f := range in.faults {
		in.injected[f.Kind]++
		in.schedule(f)
	}
	return in
}

// Faults returns the expanded schedule (shared slice; do not mutate).
func (in *Injector) Faults() []Fault {
	if in == nil {
		return nil
	}
	return in.faults
}

// Instrument attaches the observability sinks: FillMetrics exports counters
// into reg, and every activation/repair emits a Chrome-trace instant marker
// (category "fault") under pid. Either may be nil.
func (in *Injector) Instrument(reg *obs.Registry, tr *obs.Tracer, pid int) {
	if in == nil {
		return
	}
	in.reg, in.tr, in.pid = reg, tr, pid
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (in *Injector) schedule(f Fault) {
	switch f.Kind {
	case LinkFail:
		in.eng.At(f.At, func() { in.setLink(f, +1) })
		if f.For > 0 {
			in.eng.At(f.At+f.For, func() { in.setLink(f, -1) })
		}
	case LinkDegrade:
		in.eng.At(f.At, func() { in.setDegrade(f, true) })
		if f.For > 0 {
			in.eng.At(f.At+f.For, func() { in.setDegrade(f, false) })
		}
	case LinkFlap:
		end := f.At + f.For
		for t := f.At; t < end; t += 2 * f.Period {
			down := t
			up := down + f.Period
			if up > end {
				up = end
			}
			in.eng.At(down, func() { in.setLink(f, +1) })
			in.eng.At(up, func() { in.setLink(f, -1) })
		}
	case CHTStall:
		in.eng.At(f.At, func() { in.setCHT(f, +1) })
		if f.For > 0 {
			in.eng.At(f.At+f.For, func() { in.setCHT(f, -1) })
		}
	case NodeCrash:
		in.eng.At(f.At, func() { in.setNode(f, +1) })
		if f.For > 0 {
			in.eng.At(f.At+f.For, func() { in.setNode(f, -1) })
		}
	case Storm:
		end := f.At + f.For
		for t := f.At; t < end; t += 2 * f.Period {
			on := t
			off := on + f.Period
			if off > end {
				off = end
			}
			in.eng.At(on, func() { in.setStorm(f, +1) })
			in.eng.At(off, func() { in.setStorm(f, -1) })
		}
	}
}

func (in *Injector) setLink(f Fault, delta int) {
	key := pairKey(f.A, f.B)
	was := in.linkDown[key]
	in.linkDown[key] = was + delta
	if delta > 0 && was == 0 {
		in.linksDown++
		in.note(true, fmt.Sprintf("%v %d-%d down", f.Kind, key[0], key[1]))
	} else if delta < 0 && was+delta == 0 {
		in.linksDown--
		in.note(false, fmt.Sprintf("%v %d-%d up", f.Kind, key[0], key[1]))
	}
}

func (in *Injector) setDegrade(f Fault, on bool) {
	key := pairKey(f.A, f.B)
	if on {
		in.linkFactor[key] = f.Factor
		in.note(true, fmt.Sprintf("link_degrade %d-%d bw=%g", key[0], key[1], f.Factor))
	} else {
		delete(in.linkFactor, key)
		in.note(false, fmt.Sprintf("link_degrade %d-%d restored", key[0], key[1]))
	}
}

func (in *Injector) setCHT(f Fault, delta int) {
	n := f.A
	was := in.chtDown[n]
	in.chtDown[n] = was + delta
	if delta > 0 && was == 0 {
		// Fresh event per stall episode: the previous one has fired.
		in.repair[n] = sim.NewEvent(in.eng, fmt.Sprintf("cht%d repair", n))
		in.note(true, fmt.Sprintf("cht_stall %d", n))
	} else if delta < 0 && was+delta == 0 {
		in.note(false, fmt.Sprintf("cht_stall %d repaired", n))
		if ev := in.repair[n]; ev != nil {
			ev.Fire()
		}
	}
}

func (in *Injector) setNode(f Fault, delta int) {
	n := f.A
	was := in.nodeDown[n]
	in.nodeDown[n] = was + delta
	if delta > 0 && was == 0 {
		in.crashedAt[n] = in.eng.Now()
		in.note(true, fmt.Sprintf("node_crash %d", n))
		for _, fn := range in.onNode {
			fn(n, true)
		}
	} else if delta < 0 && was+delta == 0 {
		in.note(false, fmt.Sprintf("node_crash %d recovered", n))
		for _, fn := range in.onNode {
			fn(n, false)
		}
	}
}

func (in *Injector) setStorm(f Fault, delta int) {
	n := f.A
	was := in.stormDown[n]
	in.stormDown[n] = was + delta
	if delta > 0 && was == 0 {
		in.stormFactor[n] = 1 / f.Factor
		in.note(true, fmt.Sprintf("storm %d bw=%g", n, f.Factor))
	} else if delta < 0 && was+delta == 0 {
		delete(in.stormFactor, n)
		in.note(false, fmt.Sprintf("storm %d cleared", n))
	}
}

// note records an activation (on) or repair transition.
func (in *Injector) note(on bool, label string) {
	if on {
		in.activations++
		in.active++
		if in.active > in.peakActive {
			in.peakActive = in.active
		}
	} else {
		in.repairs++
		in.active--
	}
	in.tr.Instant(label, "fault", in.pid, 0, in.eng.Now(), nil)
}

// LinkDown reports whether the (unordered) link between torus positions a
// and b is currently hard-failed.
func (in *Injector) LinkDown(a, b int) bool {
	if in == nil {
		return false
	}
	return in.linkDown[pairKey(a, b)] > 0
}

// LinkFaults returns the number of link faults in force: pairs hard-failed
// plus pairs degraded (a pair both down and degraded counts twice). It reads
// two counts, so the fabric can skip its per-hop and per-route link checks
// while it is 0: LinkDown then reports false and LinkFactor 1 for every
// pair.
func (in *Injector) LinkFaults() int {
	if in == nil {
		return 0
	}
	return in.linksDown + len(in.linkFactor)
}

// LinkFactor returns the bandwidth multiplier for the link between a and b:
// 1 when healthy, the degrade factor in (0,1) while degraded.
func (in *Injector) LinkFactor(a, b int) float64 {
	if in == nil {
		return 1
	}
	if f, ok := in.linkFactor[pairKey(a, b)]; ok {
		return f
	}
	return 1
}

// NodeDown reports whether node is currently crash-stopped.
func (in *Injector) NodeDown(node int) bool {
	if in == nil {
		return false
	}
	return in.nodeDown[node] > 0
}

// StormFactor returns the ejection serialization stretch for node: 1 when
// healthy, 1/bw while a storm burst window is open. The fabric multiplies
// the node's ejection serialization time by it, modeling a hot-spot burst
// saturating the NIC with traffic from outside the simulated job. Storm
// faults degrade but never kill: they do not count as node faults
// (HasNodeFaults stays false), so membership/healing stays unarmed.
func (in *Injector) StormFactor(node int) float64 {
	if in == nil {
		return 1
	}
	if f, ok := in.stormFactor[node]; ok {
		return f
	}
	return 1
}

// HasNodeFaults reports whether the expanded schedule contains any
// crash-stop node fault. The armci runtime arms its membership and healing
// machinery only when this is true, keeping node-fault-free runs
// bit-identical to the healthy path.
func (in *Injector) HasNodeFaults() bool {
	if in == nil {
		return false
	}
	return in.injected[NodeCrash] > 0
}

// CrashedAt returns the virtual time node most recently crashed, and
// whether it has crashed at all. Metrics use it to measure detection
// latency against ground truth; protocol code must not (survivors learn of
// failures only through the membership service).
func (in *Injector) CrashedAt(node int) (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	t, ok := in.crashedAt[node]
	return t, ok
}

// OnNodeChange registers fn to run, in engine context, on every node
// crash (down=true) and recovery (down=false) transition. The armci
// runtime uses it to kill a node's local state atomically with the crash;
// survivor-side behaviour must come from membership detection instead.
func (in *Injector) OnNodeChange(fn func(node int, down bool)) {
	if in == nil {
		return
	}
	in.onNode = append(in.onNode, fn)
}

// CHTStalled reports whether node's helper thread is currently frozen.
func (in *Injector) CHTStalled(node int) bool {
	if in == nil {
		return false
	}
	return in.chtDown[node] > 0
}

// AwaitRepair reports whether node's CHT is free of stalls; while one is
// active it first registers p (the CHT's step process) on the stall's repair
// event and parks it, so p is resumed — and should ask again — at the repair.
// A permanent stall parks p forever: CHTs are daemons, so this does not keep
// the simulation alive, and the origin-side timeout machinery recovers the
// traffic.
func (in *Injector) AwaitRepair(node int, p *sim.Proc) bool {
	if !in.CHTStalled(node) {
		return true
	}
	ev := in.repair[node]
	return ev == nil || ev.Poll(p)
}

// Active returns the number of currently active faults.
func (in *Injector) Active() int {
	if in == nil {
		return 0
	}
	return in.active
}

// FillMetrics exports the injector's counters into the registry passed to
// Instrument (schema: docs/FAULTS.md). No-op when uninstrumented.
func (in *Injector) FillMetrics() {
	if in == nil || in.reg == nil {
		return
	}
	kinds := make([]Kind, 0, len(in.injected))
	for k := range in.injected {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		in.reg.Counter("faults_injected_total", obs.L("kind", k.String())).Add(float64(in.injected[k]))
	}
	in.reg.Counter("faults_activations_total").Add(float64(in.activations))
	in.reg.Counter("faults_repairs_total").Add(float64(in.repairs))
	in.reg.Gauge("faults_active_peak").Set(float64(in.peakActive))
}
