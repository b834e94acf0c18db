package main

import (
	"fmt"
	"time"

	"armcivt/internal/armci"
	"armcivt/internal/ckpt"
	"armcivt/internal/core"
	"armcivt/internal/fabric"
	"armcivt/internal/figures"
	"armcivt/internal/ga"
	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// Layer drivers: isolated loops around one public function of one layer, a
// fresh engine each, a fixed iteration count. They stand in for in-program
// attribution (which no harness exposes yet): when an end-to-end metric
// moves, the driver of the layer that was changed should have moved with it,
// and the others should not.
//
// A driver does not depend on the workload, so each is measured once per full
// run: in the traced run of its home, the workload whose end-to-end metrics it
// is the stand-in for (metricDef.Home repeats the home per metric). That run
// takes driverReps samples and reports their median; the other workloads'
// traced runs report notMeasured.

// sink keeps results the loops compute alive so the compiler cannot drop
// the calls being timed.
var sink uint64

// driver times one sample and stores it under one or more metric names. Only
// simShards2 reads the seed: it reruns its home workload.
type driver struct {
	home string
	run  func(p profile, seed int64, out map[string]float64) error
}

var drivers = []driver{
	{"hotspot", simHandoff}, {"hotspot", coreNextHop}, {"hotspot", armciOps}, {"hotspot", armciSmallNew}, {"hotspot", obsHotPath},
	{"chaos_heal", simEvents}, {"chaos_heal", simShards2}, {"chaos_heal", fabricSend}, {"chaos_heal", coreHeal}, {"chaos_heal", ckptMix},
	{"scale_64k", simSpawn}, {"scale_64k", fabricNew}, {"scale_64k", armciBig},
	{"app_dft", gaOps},
}

// runDrivers takes p.driverReps samples of every metric of the drivers whose
// home is this workload.
func runDrivers(home string, p profile, seed int64) (map[string]summary, error) {
	samples := map[string][]float64{}
	for _, d := range drivers {
		if d.home != home {
			continue
		}
		for i := 0; i < p.driverReps; i++ {
			out := map[string]float64{}
			if err := d.run(p, seed, out); err != nil {
				return nil, err
			}
			for k, v := range out {
				samples[k] = append(samples[k], v)
			}
		}
	}
	m := map[string]summary{}
	for k, xs := range samples {
		m[k] = summarize(xs)
	}
	return m, nil
}

// iters scales a full-profile iteration count down for the smoke test.
func (p profile) iters(n int) int {
	if n /= p.driverDiv; n < 1 {
		return 1
	}
	return n
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// --- sim ---

// simEvents: schedule + execute one AfterOnArg event while `standing` timers
// stay queued, so every push and pop sifts through a heap of that depth.
func simEvents(p profile, _ int64, out map[string]float64) error {
	for _, c := range []struct {
		name     string
		standing int
	}{{"sim.event_ns.heap16", 16}, {"sim.event_ns.heap64k", p.big}} {
		events := c.standing + p.iters(1_000_000)
		e := sim.New()
		scheduled := 0
		var fn func(any)
		fn = func(any) {
			if scheduled < events {
				scheduled++
				e.AfterOnArg(sim.GlobalOwner, sim.Time(scheduled%7+1), fn, nil)
			}
		}
		for ; scheduled < c.standing; scheduled++ {
			e.AfterOnArg(sim.GlobalOwner, sim.Time(scheduled%13+1), fn, nil)
		}
		t0 := time.Now()
		if err := e.Run(); err != nil {
			return err
		}
		out[c.name] = nsPer(time.Since(t0), events)
	}
	return nil
}

// simHandoff: two processes alternating through queues; one hand-off is one
// park plus one resume, the rank<->CHT cost of every blocking operation.
func simHandoff(p profile, _ int64, out map[string]float64) error {
	n := p.iters(100_000)
	e := sim.New()
	ping, pong := sim.NewQueue[int](e, "ping"), sim.NewQueue[int](e, "pong")
	e.Spawn("a", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			pong.Get(pr)
		}
	})
	e.Spawn("b", func(pr *sim.Proc) {
		for i := 0; i < n; i++ {
			ping.Get(pr)
			pong.Put(i)
		}
	})
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return err
	}
	out["sim.handoff_ns"] = nsPer(time.Since(t0), 2*n)
	return nil
}

// simSpawn: SpawnOn plus run-to-exit of trivial processes, what 65536 idle
// ranks and CHTs cost scale_64k before any operation is issued.
func simSpawn(p profile, _ int64, out map[string]float64) error {
	e := sim.New()
	t0 := time.Now()
	for i := 0; i < p.big; i++ {
		e.SpawnOn(i, "idle", func(*sim.Proc) {})
	}
	if err := e.Run(); err != nil {
		return err
	}
	out["sim.spawn_ns"] = nsPer(time.Since(t0), p.big)
	e.Shutdown()
	return nil
}

// simShards2: one chaos_heal rep (the workload's own size and seed) on the
// serial kernel against one at Shards: 2; a sample is the ratio of the pair's
// host times, so the summary's min and max show how far apart pairs fall. The
// two must end in the same state. This is ROADMAP item 2(b)'s verdict number;
// no end-to-end metric sees the sharded kernel: every workload runs serial.
func simShards2(p profile, seed int64, out map[string]float64) error {
	cfg := chaosConfig(p, seed)
	var wall [2]float64
	var fp [2]uint64
	for i, shards := range []int{1, 2} {
		cfg.Shards = shards
		var res *figures.ChaosResult
		var err error
		// Timed as a workload rep is: the collector runs first, so the
		// second of the pair does not start on the first one's heap.
		wall[i] = measure(func() { res, err = figures.Chaos(cfg) }).wall
		if err != nil {
			return fmt.Errorf("sim.shards2_speedup: shards %d: %w", shards, err)
		}
		fp[i] = res.Fingerprint
	}
	if fp[0] != fp[1] {
		return fmt.Errorf("sim.shards2_speedup: fingerprint %x at Shards 2, %x serial", fp[1], fp[0])
	}
	out["sim.shards2_speedup"] = wall[0] / wall[1]
	return nil
}

// --- fabric ---

// sender keeps one message in flight from src to dst until left runs out.
type sender struct {
	src, dst, left int
}

// fabricSend: host time per delivered 64-byte message on a 512-node torus,
// every node sending closed-loop to a neighbour (1 hop), to a node at the
// torus diameter, or to node 0 (incast: one ejection port serializes all).
func fabricSend(p profile, _ int64, out map[string]float64) error {
	const nodes, size = 512, 64
	farHops := 1
	for _, c := range []struct {
		name string
		far  bool // destination at the torus diameter, else 1 hop away
		to0  bool // destination node 0
	}{
		{name: "fabric.send_ns.hop1"},
		{name: "fabric.send_ns.far", far: true},
		{name: "fabric.send_ns.incast", to0: true},
	} {
		e := sim.New()
		nw := fabric.New(e, nodes, fabric.DefaultConfig(nodes))
		hops := 1
		if c.far {
			for dst := 0; dst < nodes; dst++ {
				if h := nw.Hops(0, dst); h > hops {
					hops = h
				}
			}
			farHops = hops
		}
		per := p.iters(100)
		var deliver func(arg any, ce bool)
		deliver = func(arg any, _ bool) {
			s := arg.(*sender)
			if s.left--; s.left > 0 {
				nw.SendArg(s.src, s.dst, size, deliver, s)
			}
		}
		for src := 0; src < nodes; src++ {
			s := &sender{src: src, left: per}
			if !c.to0 {
				s.dst = atHops(nw, src, hops)
			}
			nw.SendArg(s.src, s.dst, size, deliver, s)
		}
		t0 := time.Now()
		if err := e.Run(); err != nil {
			return err
		}
		d := time.Since(t0)
		if got := nw.Stats().Messages; got != uint64(nodes*per) {
			return fmt.Errorf("%s: %d messages delivered, want %d", c.name, got, nodes*per)
		}
		out[c.name] = nsPer(d, nodes*per)
	}
	// Twelve hops on the 8x8x8 torus against one: the cost of one more hop.
	out["fabric.hop_ns"] = (out["fabric.send_ns.far"] - out["fabric.send_ns.hop1"]) / float64(farHops-1)
	return nil
}

// atHops returns the first node exactly hops away from src.
func atHops(nw *fabric.Network, src, hops int) int {
	for dst := 0; dst < nw.Nodes(); dst++ {
		if nw.Hops(src, dst) == hops {
			return dst
		}
	}
	panic(fmt.Sprintf("bench: no node %d hops from %d", hops, src))
}

func fabricNew(p profile, _ int64, out map[string]float64) error {
	t0 := time.Now()
	nw := fabric.New(sim.New(), p.big, fabric.DefaultConfig(p.big))
	out["fabric.new_ms.64k"] = ms(time.Since(t0))
	sink += uint64(nw.Nodes())
	return nil
}

// --- core ---

// pair i of the fixed list every routing driver walks.
func pairAt(i, nodes int) (src, dst int) {
	return i % nodes, (i*2654435761 + 12345) % nodes
}

func coreNextHop(p profile, _ int64, out map[string]float64) error {
	const nodes = 4096
	n := p.iters(1_000_000)
	for _, kind := range core.Kinds {
		topo, err := core.New(kind, nodes)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			src, dst := pairAt(i, nodes)
			sink += uint64(topo.NextHop(src, dst))
		}
		out["core.nexthop_ns."+lower(kind)] = nsPer(time.Since(t0), n)
	}
	return nil
}

// coreHeal: the two core calls the membership/heal path and every set-up
// make: ReplacementHop around 8 dead nodes on MFCG 512, and Neighbors over
// every node of MFCG 4096.
func coreHeal(p profile, _ int64, out map[string]float64) error {
	const healNodes = 512
	topo, err := core.New(core.MFCG, healNodes)
	if err != nil {
		return err
	}
	down := func(node int) bool { return node%64 == 7 } // 8 of 512
	n := p.iters(200_000)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		src, dst := pairAt(i, healNodes)
		hop, _ := core.ReplacementHop(topo, src, dst, down)
		sink += uint64(hop + 1)
	}
	out["core.replacement_hop_ns"] = nsPer(time.Since(t0), n)

	const nbrNodes = 4096
	if topo, err = core.New(core.MFCG, nbrNodes); err != nil {
		return err
	}
	rounds := p.iters(10)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for node := 0; node < nbrNodes; node++ {
			sink += uint64(len(topo.Neighbors(node)))
		}
	}
	out["core.neighbors_ns"] = nsPer(time.Since(t0), rounds*nbrNodes)
	return nil
}

// --- armci ---

// timeRank builds a runtime, lets the last rank run body (every other rank
// returns at once) and returns the host time of rt.Run.
func timeRank(kind core.Kind, nodes, ppn int, tweak func(*armci.Config), prepare func(*armci.Runtime), body func(r *armci.Rank)) (time.Duration, error) {
	rt, err := newRuntime(nil, "", kind, nodes, ppn, 1, func(_ *sim.Engine, cfg *armci.Config) {
		if tweak != nil {
			tweak(cfg)
		}
	})
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	prepare(rt)
	last := rt.NRanks() - 1
	t0 := time.Now()
	err = rt.Run(func(r *armci.Rank) {
		if r.Rank() == last {
			body(r)
		}
	})
	return time.Since(t0), err
}

// armciOps: host time per operation the last rank issues to rank `target`.
// fadd_remote_timeouts and fadd_win8_agg run the unpooled request path
// (RequestTimeout or aggregation disarm pooling); the gap to fadd_remote is
// what ROADMAP item 3 should close.
func armciOps(p profile, _ int64, out map[string]float64) error {
	segs := make([]armci.Seg, 32)
	for i := range segs {
		segs[i] = armci.Seg{Off: i * 512, Len: 256}
	}
	data := make([]byte, 32*256)
	fadd := func(r *armci.Rank, target int) { r.FetchAdd(target, "hot", 0, 1) }
	win8 := make([]*armci.Handle, 8)
	for _, c := range []struct {
		name       string
		kind       core.Kind
		nodes, ppn int
		target     int
		n          int // operations
		per        int // operations one call of op issues
		tweak      func(*armci.Config)
		op         func(r *armci.Rank, target int)
	}{
		{"fadd_local", core.FCG, 2, 2, 2, 100_000, 1, nil, fadd}, // rank 3 -> rank 2, both on node 1
		{"fadd_remote", core.FCG, 2, 1, 0, 20_000, 1, nil, fadd},
		{"fadd_fwd5", core.Hypercube, 64, 1, 0, 5_000, 1, nil, fadd}, // node 63 -> 0: 6 hops, 5 forwards
		{"putv_remote", core.FCG, 2, 1, 0, 10_000, 1, nil, func(r *armci.Rank, target int) { r.PutV(target, "hot", segs, data) }},
		{"fadd_remote_timeouts", core.FCG, 2, 1, 0, 20_000, 1, func(c *armci.Config) { c.RequestTimeout = armci.DefaultRequestTimeout }, fadd},
		{"fadd_win8_agg", core.FCG, 2, 1, 0, 20_000, 8, func(c *armci.Config) { c.Agg.Enabled = true }, func(r *armci.Rank, target int) {
			for i := range win8 {
				win8[i] = r.NbFetchAdd(target, "hot", 0, 1)
			}
			r.WaitAll(win8...)
		}},
	} {
		calls := p.iters(c.n / c.per)
		d, err := timeRank(c.kind, c.nodes, c.ppn, c.tweak,
			func(rt *armci.Runtime) { rt.Alloc("hot", 32*512) },
			func(r *armci.Rank) {
				for i := 0; i < calls; i++ {
					c.op(r, c.target)
				}
			})
		if err != nil {
			return fmt.Errorf("armci.op_ns.%s: %w", c.name, err)
		}
		out["armci.op_ns."+c.name] = nsPer(d, calls*c.per)
	}
	return nil
}

func armciSmallNew(p profile, _ int64, out map[string]float64) error {
	topo, err := core.New(core.FCG, 256)
	if err != nil {
		return err
	}
	cfg := armci.DefaultConfig(256, 4)
	cfg.Topology = topo
	t0 := time.Now()
	rt, err := armci.New(sim.New(), cfg)
	if err != nil {
		return err
	}
	out["armci.new_ms.fcg256x4"] = ms(time.Since(t0))
	rt.Shutdown()
	return nil
}

// armciBig: what 65536 nodes cost merely by existing: armci.New, rt.Run with
// an empty body, rt.Shutdown.
func armciBig(p profile, _ int64, out map[string]float64) error {
	topo, err := core.New(core.Hypercube, p.big)
	if err != nil {
		return err
	}
	cfg := armci.DefaultConfig(p.big, 1)
	cfg.Topology = topo
	t0 := time.Now()
	rt, err := armci.New(sim.New(), cfg)
	if err != nil {
		return err
	}
	out["armci.new_ms.hypercube64k"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := rt.Run(func(*armci.Rank) {}); err != nil {
		return err
	}
	out["armci.run_idle_ms.hypercube64k"] = ms(time.Since(t0))
	t0 = time.Now()
	rt.Shutdown()
	out["armci.shutdown_ms.hypercube64k"] = ms(time.Since(t0))
	return nil
}

// --- ga, ckpt, obs ---

// gaOps: the two Global-Arrays calls app_dft is made of, from the last rank
// of MFCG 16 nodes x 4 PPN to rank 0's block: a 16x16 Get and the nxtval
// counter's read-and-increment.
func gaOps(p profile, _ int64, out map[string]float64) error {
	var arr *ga.Array
	var ctr *ga.Counter
	prepare := func(rt *armci.Runtime) {
		arr = ga.Create(rt, "a", 128, 128) // 8x8 process grid: 16x16 blocks
		ctr = ga.NewCounter(rt, "nxtval", 0)
	}
	n := p.iters(5_000)
	d, err := timeRank(core.MFCG, 16, 4, nil, prepare, func(r *armci.Rank) {
		for i := 0; i < n; i++ {
			sink += uint64(len(arr.Get(r, [2]int{0, 0}, [2]int{16, 16}).Data))
		}
	})
	if err != nil {
		return err
	}
	out["ga.get_ns.block16"] = nsPer(d, n)
	d, err = timeRank(core.MFCG, 16, 4, nil, prepare, func(r *armci.Rank) {
		for i := 0; i < n; i++ {
			sink += uint64(ctr.Next(r))
		}
	})
	if err != nil {
		return err
	}
	out["ga.readinc_ns"] = nsPer(d, n)
	return nil
}

// ckptMix: the digest every checkpoint section is folded with. No workload
// arms checkpoints; this guards the cost PR 10 found at 65% of armed CPU.
func ckptMix(p profile, _ int64, out map[string]float64) error {
	buf := make([]byte, p.big<<10) // 64 MiB
	t0 := time.Now()
	sink += ckpt.MixBytes(ckpt.MixInit, buf)
	out["ckpt.mix_mbps"] = float64(len(buf)) / 1e6 / time.Since(t0).Seconds()
	return nil
}

func obsHotPath(p profile, _ int64, out map[string]float64) error {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_counter")
	n := p.iters(5_000_000)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
	}
	out["obs.counter_inc_ns"] = nsPer(time.Since(t0), n)
	h := reg.Histogram("bench_hist", obs.TimeBuckets)
	n = p.iters(2_000_000)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(float64(i & 1023))
	}
	out["obs.hist_observe_ns"] = nsPer(time.Since(t0), n)
	sink += uint64(c.Value()) + h.Count()
	return nil
}
