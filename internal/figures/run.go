package figures

import (
	"armcivt/internal/armci"
	"armcivt/internal/core"
	"armcivt/internal/faults"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// run is the set-up every harness shares: a fresh deterministic engine, its
// seed, the topology, the runtime configuration, observability and, with a
// fault schedule, the injector and the sim watchdog.
type run struct {
	spec       core.Spec
	nodes, ppn int
	seed       int64 // 0 keeps the engine's default seed
	shards     int
	// faults, when non-nil, is injected into the run and arms the watchdog,
	// which turns a wedged run into an *armci.StallError instead of a hang.
	faults *faults.Spec
	// collapse, when positive, also arms the watchdog's goodput-collapse
	// detector with this per-window completion floor (Watchdog.SetGoodput).
	collapse   uint64
	metrics    *obs.Registry
	trace      *obs.Tracer
	tracePID   int
	traceSched bool
}

// specOf returns topo, or the standard topology of kind when topo is zero.
func specOf(kind core.Kind, topo core.Spec) core.Spec {
	if topo.IsZero() {
		return core.Spec{Kind: kind}
	}
	return topo
}

// start builds the runtime. title names the run in the trace; edit, when
// non-nil, sets what the harness needs beyond the shared fields. Tracing
// forces the serial kernel: it is a serial-only observation tool, and by the
// determinism contract the shard count changes no result.
func (r run) start(title string, edit func(*armci.Config)) (*armci.Runtime, error) {
	eng := sim.New()
	if r.seed != 0 {
		eng.Seed(r.seed)
	}
	topo, err := r.spec.Build(r.nodes)
	if err != nil {
		return nil, err
	}
	cfg := armci.DefaultConfig(r.nodes, r.ppn)
	cfg.Topology = topo
	cfg.Shards = r.shards
	cfg.Metrics, cfg.Trace, cfg.TracePID = r.metrics, r.trace, r.tracePID
	if r.faults != nil {
		cfg.Faults = faults.NewInjector(eng, r.nodes, r.faults)
	}
	if edit != nil {
		edit(&cfg)
	}
	if r.trace != nil {
		cfg.Shards = 1
		r.trace.ProcessName(r.tracePID, title)
		if r.traceSched {
			eng.SetTracer(obs.NewSimTracer(r.trace, r.tracePID))
		}
	}
	rt, err := armci.New(eng, cfg)
	if err != nil || r.faults == nil {
		return rt, err
	}
	wd := sim.NewWatchdog(eng, 0, 0)
	if r.collapse > 0 {
		wd.SetGoodput(rt.GoodputSample, r.collapse)
	}
	wd.Start()
	return rt, nil
}
