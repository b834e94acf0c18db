// Package sweep is the parallel experiment-sweep engine: it expands a
// declarative grid specification (topology × nodes × message size × fault
// spec × seed, with repetitions) into independent deterministic simulation
// points and executes them on a bounded worker pool with a content-addressed
// on-disk result cache.
//
// Each internal/sim engine is single-threaded and shares no state with any
// other engine, so points are embarrassingly parallel: the pool only changes
// wall-clock time, never results. The runner returns results in expansion
// order regardless of completion order, so the merged output of a sweep is
// byte-identical at any worker count — a property the tests assert.
//
// The grammar of grid specs, the cache-key semantics and the emitted sweep_*
// metrics are documented in docs/SWEEP.md; a drift test fails if the metric
// names and the document diverge. The overall data flow of a sweep run is
// diagrammed in docs/ARCHITECTURE.md.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"armcivt/internal/core"
)

// Experiment names accepted by the exp= grid key.
const (
	ExpContention = "contention" // Figs 6-7 hot-spot microbenchmark
	ExpMemscale   = "memscale"   // Fig 5 memory scaling
	ExpChaos      = "chaos"      // randomized crash/recover invariant harness
	ExpOverload   = "overload"   // incast-storm overload-protection harness
)

// keySalt versions the cache-key derivation. Bump it whenever the meaning of
// a Point field (or the executor behind it) changes incompatibly, so stale
// cache entries can never be served for new semantics.
const keySalt = "armcivt-sweep-point/v1"

// levelEvery maps the paper's contention scenarios to ContenderEvery values:
// every 9th process contending is 11%, every 5th is 20%.
var levelEvery = map[string]int{"none": 0, "11": 9, "20": 5}

// LevelName renders a level key the way the paper's figures caption it.
func LevelName(level string) string {
	switch level {
	case "11":
		return "11% contention"
	case "20":
		return "20% contention"
	default:
		return "no contention"
	}
}

// Grid is a declarative sweep specification. Every slice field is one axis
// of the cross-product; scalar fields are shared by all points. The zero
// value expands to the paper's default Fig 6 grid; ParseGrid fills one from
// the textual grammar documented in docs/SWEEP.md. A field's grid tag names
// the grid key that sets it; Expand rejects a grid that moves a key its
// experiment does not read (expKeys) off that key's default.
type Grid struct {
	// Experiment selects the executor: "contention" (default), "memscale",
	// "chaos" or "overload".
	Experiment string

	Topos  []string `grid:"topos"`   // topology kinds; default all four
	Levels []string `grid:"levels"`  // contention levels: none, 11, 20
	Nodes  []int    `grid:"nodes"`   // node counts (contention); default 256
	Sizes  []int    `grid:"msgsize"` // vectored-put segment lengths in bytes; default 256
	Faults []string `grid:"faults"`  // fault specs (docs/FAULTS.md grammar); "none" = fault-free
	Seeds  []int64  `grid:"seeds"`   // engine RNG seeds; default 1 (the engine's own default)
	Procs  []int    `grid:"procs"`   // process counts (memscale); default paper's five

	// Aggs and Adapts toggle the runtime protocol under the workload:
	// small-op aggregation and adaptive credit management. Values are
	// "off" (default) and "on"; listing both makes the protocol an axis,
	// so agg=off,on runs every cell twice for a paired comparison.
	Aggs   []string `grid:"agg"`
	Adapts []string `grid:"adapt"`

	// Crashes and Heals drive the chaos experiment: how many nodes
	// crash-stop per run and whether membership + self-healing is armed.
	// heal=on,off runs each schedule in both arms for a paired comparison
	// (healing on: only partitions fail; off: dead forwarders lose paths).
	// Heals also applies to contention grids, where arming healing without
	// node faults is a documented no-op (bit-identical results).
	Crashes []int    `grid:"crashes"` // crash counts; default 3
	Heals   []string `grid:"heal"`    // "off"/"on"; default on for chaos, off otherwise

	// Storms, Tenants and Overloads drive the overload experiment: the
	// storm-intensity axis (ejection-bandwidth bursts against the hot node),
	// the tenant-mix axis, and whether the overload-protection layer is
	// armed. overload=off,on runs every cell in both arms — the paired
	// collapse comparison the experiment exists for, and its default.
	// Overloads also applies to contention grids, where arming protection on
	// an uncongested workload leaves results unchanged in substance (pacing
	// only engages on CE marks) but not bit-identically — unlike heal=on,
	// the fabric occupancy tracking does observe the marking threshold.
	Storms    []int    `grid:"storm"`    // storm burst counts; default 2
	Tenants   []int    `grid:"tenants"`  // tenant counts; default 2
	Overloads []string `grid:"overload"` // "off"/"on"; default off,on for overload grids, off otherwise

	Op          string `grid:"op"`     // contention op: vput (default) or fadd
	PPN         int    `grid:"ppn"`    // processes per node; default 4 (memscale 12)
	Iters       int    `grid:"iters"`  // iterations per measured process; default 20
	SampleEvery int    `grid:"sample"` // measure every k-th rank; default 8
	StreamLimit int    `grid:"stream"` // NIC stream-limit override; 0 = fabric default
	VecSegs     int    `grid:"segs"`   // vectored-put segment count; default 32
	Window      int    `grid:"window"` // nonblocking pipeline window per process; 0 = blocking
	Reps        int    `grid:"reps"`   // repetitions per point; rep r perturbs the seed
	Metrics     bool   // collect a per-point observability snapshot
}

// expKeys lists the grid keys each experiment reads besides exp.
var expKeys = map[string][]string{
	ExpContention: {"topos", "levels", "nodes", "msgsize", "faults", "seeds", "agg", "adapt",
		"heal", "overload", "op", "ppn", "iters", "sample", "stream", "segs", "window", "reps"},
	ExpMemscale: {"topos", "procs", "ppn"},
	ExpChaos:    {"topos", "nodes", "seeds", "crashes", "heal", "ppn", "iters", "reps"},
	ExpOverload: {"topos", "nodes", "seeds", "storm", "tenants", "overload", "ppn", "iters", "reps"},
}

// checkKeys rejects an unknown experiment, and a defaulted grid that moves
// a key its experiment ignores off the default: such a key would otherwise
// vanish from the expanded points without a word.
func (g Grid) checkKeys() error {
	used, ok := expKeys[g.Experiment]
	if !ok {
		return fmt.Errorf("sweep: unknown experiment %q", g.Experiment)
	}
	v := reflect.ValueOf(g)
	def := reflect.ValueOf(Grid{Experiment: g.Experiment}.withDefaults())
	var ignored []string
	for i := 0; i < v.NumField(); i++ {
		key := v.Type().Field(i).Tag.Get("grid")
		if key == "" || slices.Contains(used, key) {
			continue
		}
		if !reflect.DeepEqual(v.Field(i).Interface(), def.Field(i).Interface()) {
			ignored = append(ignored, key)
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("sweep: exp=%s does not use grid key(s) %s", g.Experiment, strings.Join(ignored, ", "))
	}
	return nil
}

// ParseGrid parses the textual grid grammar: semicolon-separated key=value
// fields whose values are comma-separated lists (faults= uses "|" because
// fault specs contain commas). Example:
//
//	exp=contention;op=vput;topos=fcg,mfcg;nodes=64;ppn=2;levels=none,20;seeds=1,2
func ParseGrid(spec string) (*Grid, error) {
	g := &Grid{}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("sweep: field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "exp":
			if val != ExpContention && val != ExpMemscale && val != ExpChaos && val != ExpOverload {
				return nil, fmt.Errorf("sweep: unknown experiment %q (want %s, %s, %s or %s)",
					val, ExpContention, ExpMemscale, ExpChaos, ExpOverload)
			}
			g.Experiment = val
		case "op":
			if val != "vput" && val != "fadd" {
				return nil, fmt.Errorf("sweep: unknown op %q (want vput or fadd)", val)
			}
			g.Op = val
		case "topos":
			specs, serr := core.ParseSpecList(val)
			if serr != nil {
				return nil, fmt.Errorf("sweep: %w", serr)
			}
			// Canonical form, so labels and cache keys are case-insensitive
			// in the spec. Bare kinds canonicalize to the classic Kind
			// names, keeping pre-existing cache keys; parameterized specs
			// (hyperx:8x8x4, dragonfly:g=9,a=4,h=2) canonicalize to the
			// Spec grammar.
			for _, s := range specs {
				g.Topos = append(g.Topos, s.String())
			}
		case "levels":
			for _, l := range splitList(val) {
				if _, ok := levelEvery[l]; !ok {
					return nil, fmt.Errorf("sweep: unknown level %q (want none, 11 or 20)", l)
				}
				g.Levels = append(g.Levels, l)
			}
		case "nodes":
			g.Nodes, err = parseIntList(val)
		case "msgsize":
			g.Sizes, err = parseIntList(val)
		case "procs":
			g.Procs, err = parseIntList(val)
		case "seeds":
			for _, s := range splitList(val) {
				v, perr := strconv.ParseInt(s, 10, 64)
				if perr != nil {
					return nil, fmt.Errorf("sweep: bad seed %q", s)
				}
				g.Seeds = append(g.Seeds, v)
			}
		case "faults":
			// Fault specs contain commas, so alternatives are |-separated.
			for _, f := range strings.Split(val, "|") {
				g.Faults = append(g.Faults, strings.TrimSpace(f))
			}
		case "ppn":
			g.PPN, err = strconv.Atoi(val)
		case "iters":
			g.Iters, err = strconv.Atoi(val)
		case "sample":
			g.SampleEvery, err = strconv.Atoi(val)
		case "stream":
			g.StreamLimit, err = strconv.Atoi(val)
		case "segs":
			g.VecSegs, err = strconv.Atoi(val)
		case "window":
			g.Window, err = strconv.Atoi(val)
		case "agg":
			g.Aggs, err = parseOnOffList(key, val)
		case "adapt":
			g.Adapts, err = parseOnOffList(key, val)
		case "crashes":
			g.Crashes, err = parseIntList(val)
		case "heal":
			g.Heals, err = parseOnOffList(key, val)
		case "storm":
			g.Storms, err = parseIntList(val)
		case "tenants":
			g.Tenants, err = parseIntList(val)
		case "overload":
			g.Overloads, err = parseOnOffList(key, val)
		case "reps":
			g.Reps, err = strconv.Atoi(val)
		default:
			return nil, fmt.Errorf("sweep: unknown grid key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: bad %s value %q: %v", key, val, err)
		}
	}
	return g, nil
}

func splitList(val string) []string {
	var out []string
	for _, s := range strings.Split(val, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func parseOnOffList(key, val string) ([]string, error) {
	var out []string
	for _, s := range splitList(val) {
		if s != "off" && s != "on" {
			return nil, fmt.Errorf("%s value %q (want off or on)", key, s)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseIntList(val string) ([]int, error) {
	var out []int
	for _, s := range splitList(val) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// withDefaults fills unset axes with the paper's defaults.
func (g Grid) withDefaults() Grid {
	if g.Experiment == "" {
		g.Experiment = ExpContention
	}
	if len(g.Topos) == 0 {
		for _, k := range core.Kinds {
			g.Topos = append(g.Topos, k.String())
		}
	}
	if len(g.Levels) == 0 {
		g.Levels = []string{"none", "11", "20"}
	}
	if len(g.Nodes) == 0 {
		switch g.Experiment {
		case ExpChaos:
			// The chaos harness's acceptance scale; paper-scale contention
			// grids would spend most of their time on heartbeats.
			g.Nodes = []int{64}
		case ExpOverload:
			g.Nodes = []int{64} // the overload harness's calibration scale
		default:
			g.Nodes = []int{256}
		}
	}
	if len(g.Sizes) == 0 {
		g.Sizes = []int{256}
	}
	if len(g.Faults) == 0 {
		g.Faults = []string{"none"}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	if len(g.Aggs) == 0 {
		g.Aggs = []string{"off"}
	}
	if len(g.Adapts) == 0 {
		g.Adapts = []string{"off"}
	}
	if len(g.Crashes) == 0 {
		g.Crashes = []int{3}
	}
	if len(g.Heals) == 0 {
		if g.Experiment == ExpChaos {
			g.Heals = []string{"on"}
		} else {
			// For contention grids healing is opt-in: the default keeps
			// every pre-existing point (and cache key) untouched.
			g.Heals = []string{"off"}
		}
	}
	if len(g.Storms) == 0 {
		g.Storms = []int{2}
	}
	if len(g.Tenants) == 0 {
		g.Tenants = []int{2}
	}
	if len(g.Overloads) == 0 {
		if g.Experiment == ExpOverload {
			g.Overloads = []string{"off", "on"}
		} else {
			// Off by default elsewhere: every pre-existing point (and cache
			// key) stays untouched.
			g.Overloads = []string{"off"}
		}
	}
	if len(g.Procs) == 0 {
		g.Procs = []int{768, 1536, 3072, 6144, 12288}
	}
	if g.Op == "" {
		g.Op = "vput"
	}
	if g.PPN == 0 {
		switch g.Experiment {
		case ExpMemscale:
			g.PPN = 12
		case ExpChaos, ExpOverload:
			g.PPN = 2
		default:
			g.PPN = 4
		}
	}
	if g.Iters == 0 {
		g.Iters = 20
	}
	if g.SampleEvery == 0 {
		g.SampleEvery = 8
	}
	if g.VecSegs == 0 {
		g.VecSegs = 32
	}
	if g.Reps == 0 {
		g.Reps = 1
	}
	return g
}

// Point is one fully resolved simulation run: the cross-product cell a
// worker executes. All fields that influence the result participate in the
// cache key (Index does not — it is only the position in expansion order).
type Point struct {
	Index int `json:"-"`

	Experiment     string `json:"exp"`
	Topo           string `json:"topo"`
	Nodes          int    `json:"nodes,omitempty"`
	PPN            int    `json:"ppn"`
	Procs          int    `json:"procs,omitempty"`
	Op             string `json:"op,omitempty"`
	Level          string `json:"level,omitempty"`
	ContenderEvery int    `json:"contender_every,omitempty"`
	Iters          int    `json:"iters,omitempty"`
	SampleEvery    int    `json:"sample,omitempty"`
	StreamLimit    int    `json:"stream,omitempty"`
	VecSegs        int    `json:"segs,omitempty"`
	MsgSize        int    `json:"msgsize,omitempty"`
	Faults         string `json:"faults,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Rep            int    `json:"rep,omitempty"`
	Metrics        bool   `json:"metrics,omitempty"`
	// Window is the nonblocking pipeline depth per process (0 = blocking).
	// Agg and Adapt carry the protocol toggles as "on" or "" (off): the
	// empty off value is omitted from the JSON encoding, so every
	// pre-aggregation cache key — and therefore every cached result —
	// remains valid.
	Window int    `json:"window,omitempty"`
	Agg    string `json:"agg,omitempty"`
	Adapt  string `json:"adapt,omitempty"`
	// Crashes and Heal define a chaos point ("" off / "on", same omitempty
	// cache-key rule as Agg/Adapt).
	Crashes int    `json:"crashes,omitempty"`
	Heal    string `json:"heal,omitempty"`
	// Storms, Tenants and Overload define an overload point; Overload is the
	// protection arm ("" off / "on", the usual omitempty cache-key rule).
	Storms   int    `json:"storms,omitempty"`
	Tenants  int    `json:"tenants,omitempty"`
	Overload string `json:"overload,omitempty"`
}

// Key returns the point's content-addressed identity: the SHA-256 of the
// versioned canonical JSON encoding. Two points with the same key denote the
// same deterministic simulation and may share a cached result.
func (p Point) Key() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // Point has no unmarshalable fields
	}
	sum := sha256.Sum256(append([]byte(keySalt+"\n"), b...))
	return hex.EncodeToString(sum[:])
}

// Label names the point's series in merged tables: the topology, suffixed
// with the protocol toggles, seed and repetition when they differ from the
// defaults.
func (p Point) Label() string {
	l := p.Topo
	if p.Agg == "on" {
		l += "+agg"
	}
	if p.Adapt == "on" {
		l += "+adapt"
	}
	if p.Heal == "on" {
		l += "+heal"
	}
	if p.Overload == "on" {
		l += "+protect"
	}
	if p.Seed != 0 && p.Seed != 1 {
		l += fmt.Sprintf("/s%d", p.Seed)
	}
	if p.Rep > 0 {
		l += fmt.Sprintf("/r%d", p.Rep)
	}
	return l
}

// EffectiveSeed is the engine seed a point actually runs with: repetitions
// perturb the declared seed by a large prime so rep r of seed s never
// collides with another declared seed.
func (p Point) EffectiveSeed() int64 {
	if p.Rep == 0 {
		return p.Seed
	}
	return p.Seed + int64(p.Rep)*1_000_003
}

// Expand resolves the grid into its ordered list of points, skipping cells
// whose topology cannot be built at the cell's node count (hypercube off
// powers of two — the same cells the paper skips). The order is the render
// order of the merged output: for contention, level × message size × nodes
// × fault × seed × rep with topologies innermost; for memscale, topology ×
// process count. A key the experiment does not read, set off its default,
// is an error naming the key.
func (g Grid) Expand() ([]Point, error) {
	g = g.withDefaults()
	if err := g.checkKeys(); err != nil {
		return nil, err
	}
	var points []Point
	add := func(p Point) {
		p.Index = len(points)
		points = append(points, p)
	}
	switch g.Experiment {
	case ExpChaos:
		for _, nodes := range g.Nodes {
			for _, crashes := range g.Crashes {
				for _, seed := range g.Seeds {
					for rep := 0; rep < g.Reps; rep++ {
						for _, heal := range g.Heals {
							for _, topo := range g.Topos {
								spec, err := core.ParseSpec(topo)
								if err != nil {
									return nil, err
								}
								if _, err := spec.Build(nodes); err != nil {
									continue
								}
								h := heal
								if h == "off" {
									h = ""
								}
								add(Point{
									Experiment: ExpChaos, Topo: topo,
									Nodes: nodes, PPN: g.PPN, Iters: g.Iters,
									Crashes: crashes, Heal: h,
									Seed: seed, Rep: rep, Metrics: g.Metrics,
								})
							}
						}
					}
				}
			}
		}
	case ExpOverload:
		for _, storms := range g.Storms {
			for _, tenants := range g.Tenants {
				for _, nodes := range g.Nodes {
					for _, seed := range g.Seeds {
						for rep := 0; rep < g.Reps; rep++ {
							for _, ovl := range g.Overloads {
								for _, topo := range g.Topos {
									spec, err := core.ParseSpec(topo)
									if err != nil {
										return nil, err
									}
									if _, err := spec.Build(nodes); err != nil {
										continue
									}
									o := ovl
									if o == "off" {
										o = ""
									}
									add(Point{
										Experiment: ExpOverload, Topo: topo,
										Nodes: nodes, PPN: g.PPN, Iters: g.Iters,
										Storms: storms, Tenants: tenants, Overload: o,
										Seed: seed, Rep: rep, Metrics: g.Metrics,
									})
								}
							}
						}
					}
				}
			}
		}
	case ExpMemscale:
		for _, topo := range g.Topos {
			spec, err := core.ParseSpec(topo)
			if err != nil {
				return nil, err
			}
			for _, procs := range g.Procs {
				if procs%g.PPN != 0 {
					return nil, fmt.Errorf("sweep: %d processes not divisible by ppn %d", procs, g.PPN)
				}
				if _, err := spec.Build(procs / g.PPN); err != nil {
					continue
				}
				add(Point{
					Experiment: ExpMemscale, Topo: topo, PPN: g.PPN,
					Procs: procs, Metrics: g.Metrics,
				})
			}
		}
	case ExpContention:
		for _, level := range g.Levels {
			every, ok := levelEvery[level]
			if !ok {
				return nil, fmt.Errorf("sweep: unknown level %q", level)
			}
			for _, size := range g.Sizes {
				for _, nodes := range g.Nodes {
					for _, fault := range g.Faults {
						for _, seed := range g.Seeds {
							for rep := 0; rep < g.Reps; rep++ {
								for _, agg := range g.Aggs {
									for _, adapt := range g.Adapts {
										for _, heal := range g.Heals {
											for _, ovl := range g.Overloads {
												for _, topo := range g.Topos {
													spec, err := core.ParseSpec(topo)
													if err != nil {
														return nil, err
													}
													if _, err := spec.Build(nodes); err != nil {
														continue
													}
													f := fault
													if f == "none" {
														f = ""
													}
													// "off" canonicalizes to the empty
													// string so pre-aggregation cache
													// keys stay valid.
													a, ad, h, o := agg, adapt, heal, ovl
													if a == "off" {
														a = ""
													}
													if ad == "off" {
														ad = ""
													}
													if h == "off" {
														h = ""
													}
													if o == "off" {
														o = ""
													}
													add(Point{
														Experiment: ExpContention, Topo: topo,
														Nodes: nodes, PPN: g.PPN, Op: g.Op,
														Level: level, ContenderEvery: every,
														Iters: g.Iters, SampleEvery: g.SampleEvery,
														StreamLimit: g.StreamLimit,
														VecSegs:     g.VecSegs, MsgSize: size,
														Faults: f, Seed: seed, Rep: rep,
														Metrics: g.Metrics,
														Window:  g.Window, Agg: a, Adapt: ad,
														Heal: h, Overload: o,
													})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return points, nil
}

// Reindex renumbers hand-built point lists into expansion order. Callers
// that assemble points directly (cmd/vtreport's per-section kind lists)
// must call it before Runner.Run so results land in slice order.
func Reindex(points []Point) {
	for i := range points {
		points[i].Index = i
	}
}
