// Package sweep is the parallel experiment-sweep engine: it expands a
// declarative grid specification (topology × nodes × message size × fault
// spec × seed, with repetitions) into independent deterministic simulation
// points and executes them on a bounded worker pool with a content-addressed
// on-disk result cache.
//
// Each experiment (exp= value) is one entry of the experiments table, which
// declares the grid keys it reads, its defaults, how a point runs and how
// results merge into tables; the shared code never branches on a name.
//
// Each internal/sim engine is single-threaded and shares no state with any
// other engine, so points are embarrassingly parallel: the pool only changes
// wall-clock time, never results. The runner returns results in expansion
// order regardless of completion order, so the merged output of a sweep is
// byte-identical at any worker count — a property the tests assert.
//
// The grammar of grid specs, the cache-key semantics and the emitted sweep_*
// metrics are documented in docs/SWEEP.md; drift tests fail if the metric
// names or the experiments' key lists and the document diverge. The overall data flow of a sweep run is
// diagrammed in docs/ARCHITECTURE.md.
package sweep

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"armcivt/internal/core"
	"armcivt/internal/obs"
)

// Experiment names accepted by the exp= grid key.
const (
	ExpContention = "contention" // Figs 6-7 hot-spot microbenchmark
	ExpMemscale   = "memscale"   // Fig 5 memory scaling
	ExpChaos      = "chaos"      // randomized crash/recover invariant harness
	ExpLU         = "lu"         // Fig 8 NAS LU
	ExpDFT        = "dft"        // Fig 9a NWChem DFT SiOSi3 proxy
	ExpCCSD       = "ccsd"       // Fig 9b NWChem CCSD(T) water proxy
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
	if level == "11" || level == "20" {
		return level + "% contention"
	}
	return "no contention"
}

// Grid is a declarative sweep specification. Every slice field is one axis
// of the cross-product; scalar fields are shared by all points. The zero
// value expands to the paper's default Fig 6 grid; ParseGrid fills one from
// the textual grammar documented in docs/SWEEP.md. A field's grid tag names
// the grid key that sets it; Expand rejects a grid that moves a key its
// experiment does not read (experiment.keys) off that key's default.
type Grid struct {
	// Experiment names the entry of the experiments table that expands and
	// executes the grid: "contention" (default), "memscale", "chaos", "lu",
	// "dft" or "ccsd".
	Experiment string `grid:"exp"`

	Topos  []string `grid:"topos"`   // topology kinds; default all four
	Levels []string `grid:"levels"`  // contention levels: none, 11, 20
	Nodes  []int    `grid:"nodes"`   // node counts; default 256 (chaos 64)
	Sizes  []int    `grid:"msgsize"` // vectored-put segment lengths in bytes; default 256
	Faults []string `grid:"faults"`  // fault specs (docs/FAULTS.md grammar); "none" = fault-free
	Seeds  []int64  `grid:"seeds"`   // engine RNG seeds; default 1 (the engine's own default)
	Procs  []int    `grid:"procs"`   // process counts (memscale, lu, dft, ccsd); default the paper's

	// Aggs toggles small-op aggregation in the runtime under the
	// workload. Values are "off" (default) and "on"; listing both makes
	// the protocol an axis, so agg=off,on runs every cell twice for a
	// paired comparison.
	Aggs []string `grid:"agg"`

	// Crashes and Heals drive the chaos experiment: how many nodes
	// crash-stop per run and whether membership + self-healing is armed.
	// heal=on,off runs each schedule in both arms for a paired comparison
	// (healing on: only partitions fail; off: dead forwarders lose paths).
	// Heals also applies to contention grids, where arming healing without
	// node faults is a documented no-op (bit-identical results).
	Crashes []int    `grid:"crashes"` // crash counts; default 3
	Heals   []string `grid:"heal"`    // "off"/"on"; default on for chaos, off otherwise

	Op          string `grid:"op"`     // contention op: vput (default) or fadd
	PPN         int    `grid:"ppn"`    // processes per node; default 4 (memscale, lu, dft, ccsd 12; chaos 2)
	Iters       int    `grid:"iters"`  // iterations per measured process (lu: SSOR, dft: SCF); default 20 (lu 12, dft 3)
	SampleEvery int    `grid:"sample"` // measure every k-th rank; default 8
	StreamLimit int    `grid:"stream"` // NIC stream-limit override; 0 = fabric default
	VecSegs     int    `grid:"segs"`   // vectored-put segment count; default 32
	Window      int    `grid:"window"` // nonblocking pipeline window per process; 0 = blocking
	Reps        int    `grid:"reps"`   // repetitions per point; rep r perturbs the seed
	Metrics     bool   // collect a per-point observability snapshot
}

// experiment is everything the sweep engine knows about one exp= value:
// which grid keys it reads, how its points run, and how their results merge
// into tables. Nothing outside the experiments table branches on a name.
type experiment struct {
	// keys are the grid keys the experiment reads besides exp, in expansion
	// order: scalars first, then the axes from outermost to innermost.
	// Topologies are innermost, so a merged table holds them side by side.
	keys []string
	// defaults overrides the shared defaults for the keys it sets.
	defaults Grid
	// nodes is the node count a point's topology is built at, which decides
	// whether the cell is feasible; nil reads Point.Nodes. An error aborts
	// the expansion.
	nodes func(Point) (int, error)
	// run executes a point on its parsed topology, filling res's X/Y or
	// Value, and returns the caption of its metrics snapshot ("" for none).
	run func(p Point, spec core.Spec, opts ExecOptions, reg *obs.Registry, res *Result) (string, error)
	// group buckets the experiment's points that share a merged table, and
	// title captions it; multiNodes and multiSizes report whether the results span several
	// node counts or message sizes.
	group func(Point) string
	title func(p Point, multiNodes, multiSizes bool) string
	// x places a scalar result on the table's x-axis, named xLabel. A nil x
	// marks a series-valued experiment: each result is a whole series, and
	// its table gets a summary.
	xLabel string
	x      func(Point) float64
}

// experiments is the table of every exp= value.
var experiments = map[string]experiment{
	ExpContention: contention, ExpMemscale: memscale, ExpChaos: chaos,
	ExpLU: luExp, ExpDFT: dftExp, ExpCCSD: ccsdExp,
}

var (
	// contention is the Figs 6-7 hot-spot microbenchmark: each point is a
	// series of per-rank latencies, and each level gets its own table.
	contention = experiment{
		keys: []string{"op", "ppn", "iters", "sample", "stream", "segs", "window",
			"levels", "msgsize", "nodes", "faults", "seeds", "reps", "agg", "heal", "topos"},
		run: runContention,
		// The protocol toggles are deliberately absent: an off/on pair
		// shares one table, distinguished by series label.
		group: func(p Point) string {
			return fmt.Sprintf("%s|%s|%d|%d|%d|%s", p.Op, p.Level, p.MsgSize, p.Nodes, p.Window, p.Faults)
		},
		title:  contentionTitle,
		xLabel: "rank",
	}
	// memscale is Fig 5: master-process memory per topology and process
	// count.
	memscale = experiment{
		keys:     []string{"ppn", "topos", "procs"},
		defaults: Grid{PPN: 12},
		nodes:    procNodes,
		run:      runMemscale,
		group:    func(Point) string { return "" },
		title:    func(Point, bool, bool) string { return "memscale: master-process memory (MBytes) vs processes" },
		xLabel:   "processes",
		x:        procsX,
	}
	// luExp, dftExp and ccsdExp are the application proxies of Figs 8-9 at
	// the paper's problem sizes: rank 0's execution time per topology and
	// process count. Their defaults are the paper's runs.
	luExp = appExperiment(Grid{PPN: 12, Iters: 12, Procs: []int{192, 384, 768, 1536}}, true,
		"Figure 8: NAS LU execution time (s) vs processes", "processes", runApp(luApp))
	dftExp = appExperiment(Grid{PPN: 12, Iters: 3, Procs: []int{768, 1536, 3072, 6144}}, true,
		"Figure 9(a): NWChem DFT SiOSi3 proxy — total execution time (s) vs cores", "cores", runApp(dftApp))
	ccsdExp = appExperiment(Grid{PPN: 12, Procs: []int{768, 1536, 3072}, Topos: []string{"FCG", "MFCG"}}, false,
		"Figure 9(b): NWChem CCSD(T) water proxy — total execution time (s) vs cores", "cores", runApp(ccsdApp))
	// chaos is the randomized crash/recover invariant harness. Its default
	// scale is the harness's acceptance scale: paper-scale grids would
	// spend most of their time on heartbeats.
	chaos = experiment{
		keys:     []string{"ppn", "iters", "nodes", "crashes", "seeds", "reps", "heal", "topos"},
		defaults: Grid{Nodes: []int{64}, PPN: 2, Heals: []string{"on"}},
		run:      runChaos,
		// Crash count is the x-axis; heal on/off pairs share the table,
		// distinguished by the +heal series label.
		group: func(p Point) string { return fmt.Sprintf("%d|%d", p.Nodes, p.Iters) },
		title: func(p Point, _, _ bool) string {
			return fmt.Sprintf("chaos: failed survivor ops vs crashes, %d nodes, %d ops/rank", p.Nodes, p.Iters)
		},
		xLabel: "crashes",
		x:      func(p Point) float64 { return float64(p.Crashes) },
	}
)

// appExperiment is an application proxy's entry: one scalar per topology
// and process count, in one table. iters says whether the proxy reads the
// iters key.
func appExperiment(defaults Grid, iters bool, title, xLabel string,
	run func(Point, core.Spec, ExecOptions, *obs.Registry, *Result) (string, error)) experiment {
	keys := []string{"ppn", "topos", "procs"}
	if iters {
		keys = []string{"ppn", "iters", "topos", "procs"}
	}
	return experiment{
		keys: keys, defaults: defaults, nodes: procNodes, run: run,
		group:  func(Point) string { return "" },
		title:  func(Point, bool, bool) string { return title },
		xLabel: xLabel,
		x:      procsX,
	}
}

// procNodes is the node count of a point sized by process count.
func procNodes(p Point) (int, error) {
	if p.Procs%p.PPN != 0 {
		return 0, fmt.Errorf("sweep: %d processes not divisible by ppn %d", p.Procs, p.PPN)
	}
	return p.Procs / p.PPN, nil
}

func procsX(p Point) float64 { return float64(p.Procs) }

// defaults are the paper's values for every key an experiment's own
// defaults leave unset. Toggles default off, so the points (and cache keys)
// of grids that predate a toggle are untouched by it.
var defaults = Grid{
	Experiment: ExpContention,
	Topos:      []string{"FCG", "MFCG", "CFCG", "Hypercube"}, // the paper's four
	Levels:     []string{"none", "11", "20"},
	Procs:      []int{768, 1536, 3072, 6144, 12288},

	Nodes: []int{256}, Sizes: []int{256}, Faults: []string{"none"}, Seeds: []int64{1},
	Crashes: []int{3},
	Aggs:    offOnly, Heals: offOnly,
	Op: "vput", PPN: 4, Iters: 20, SampleEvery: 8, VecSegs: 32, Reps: 1,
}

var offOnly = []string{"off"}

// withDefaults fills every unset key from the experiment's own defaults,
// then from the shared ones.
func (g Grid) withDefaults() Grid {
	g.Experiment = cmp.Or(g.Experiment, defaults.Experiment)
	fill(&g, experiments[g.Experiment].defaults)
	fill(&g, defaults)
	return g
}

// fill copies into g every field of from that g leaves unset: zero, or an
// empty list.
func fill(g *Grid, from Grid) {
	dst, src := reflect.ValueOf(g).Elem(), reflect.ValueOf(from)
	for i := range dst.NumField() {
		if f := dst.Field(i); f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(src.Field(i))
		}
	}
}

// checkKeys rejects an unknown experiment, and a defaulted grid that moves
// a key its experiment ignores off the default: such a key would otherwise
// vanish from the expanded points without a word.
func (g Grid) checkKeys() error {
	e, ok := experiments[g.Experiment]
	if !ok {
		return fmt.Errorf("sweep: unknown experiment %q", g.Experiment)
	}
	v := reflect.ValueOf(g)
	def := reflect.ValueOf(Grid{Experiment: g.Experiment}.withDefaults())
	var ignored []string
	for i := 0; i < v.NumField(); i++ {
		key := v.Type().Field(i).Tag.Get("grid")
		if key == "" || slices.Contains(e.keys, key) {
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

// gridField maps each grid key to the index of the Grid field whose tag
// names it.
var gridField = func() map[string]int {
	m := map[string]int{}
	t := reflect.TypeOf(Grid{})
	for i := range t.NumField() {
		if key := t.Field(i).Tag.Get("grid"); key != "" {
			m[key] = i
		}
	}
	return m
}()

// vocab lists the values each grid key with a fixed vocabulary accepts.
var vocab = map[string][]string{
	"exp":    experimentNames(),
	"op":     {"vput", "fadd"},
	"levels": {"none", "11", "20"},
	"agg":    {"off", "on"}, "heal": {"off", "on"},
}

func experimentNames() []string {
	var names []string
	for name := range experiments {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// checkVocab rejects a value outside its grid key's vocabulary.
func checkVocab(key, val string) error {
	if want, ok := vocab[key]; ok && !slices.Contains(want, val) {
		return fmt.Errorf("sweep: bad %s value %q (want one of %s)", key, val, strings.Join(want, ", "))
	}
	return nil
}

// ParseGrid parses the textual grid grammar: semicolon-separated key=value
// fields whose values are comma-separated lists (faults= uses "|" because
// fault specs contain commas). A key may appear once, and a value once in
// its list. Example:
//
//	exp=contention;op=vput;topos=fcg,mfcg;nodes=64;ppn=2;levels=none,20;seeds=1,2
func ParseGrid(spec string) (*Grid, error) {
	g := &Grid{}
	seen := map[string]bool{}
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
		i, ok := gridField[key]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown grid key %q", key)
		}
		if seen[key] {
			return nil, fmt.Errorf("sweep: grid key %q given twice", key)
		}
		seen[key] = true
		if err := parseField(reflect.ValueOf(g).Elem().Field(i), key, val); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// parseField splits the value of one grid key into its list items, checks
// each, and parses it by the field's element type into f.
func parseField(f reflect.Value, key, val string) error {
	var items []string
	switch {
	case key == "faults":
		// Fault specs contain commas, so alternatives are |-separated; an
		// empty alternative is fault-free.
		for _, s := range strings.Split(val, "|") {
			items = append(items, cmp.Or(strings.TrimSpace(s), "none"))
		}
	case key == "topos":
		specs, err := core.ParseSpecList(val)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		// Canonical form, so labels and cache keys are case-insensitive in
		// the spec. Bare kinds canonicalize to the classic Kind names,
		// keeping pre-existing cache keys; parameterized specs
		// (hyperx:8x8x4, dragonfly:g=9,a=4,h=2) canonicalize to the Spec
		// grammar.
		for _, s := range specs {
			items = append(items, s.String())
		}
	case f.Kind() == reflect.Slice:
		items = splitList(val)
	default:
		items = []string{val}
	}
	typ := f.Type()
	if f.Kind() == reflect.Slice {
		typ = typ.Elem()
	}
	seen := map[any]bool{}
	for _, s := range items {
		if err := checkVocab(key, s); err != nil {
			return err
		}
		v := reflect.New(typ).Elem()
		if typ.Kind() == reflect.String {
			v.SetString(s)
		} else {
			n, err := strconv.ParseInt(s, 10, typ.Bits())
			if err != nil {
				return fmt.Errorf("sweep: bad %s value %q: %v", key, val, err)
			}
			v.SetInt(n)
		}
		if f.Kind() != reflect.Slice {
			f.Set(v)
			continue
		}
		if seen[v.Interface()] {
			return fmt.Errorf("sweep: grid key %q lists %q twice", key, s)
		}
		seen[v.Interface()] = true
		f.Set(reflect.Append(f, v))
	}
	return nil
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
	// Agg carries the aggregation toggle as "on" or "" (off): the empty
	// off value is omitted from the JSON encoding, so every
	// pre-aggregation cache key — and therefore every cached result —
	// remains valid.
	Window int    `json:"window,omitempty"`
	Agg    string `json:"agg,omitempty"`
	// Crashes and Heal define a chaos point ("" off / "on", same omitempty
	// cache-key rule as Agg).
	Crashes int    `json:"crashes,omitempty"`
	Heal    string `json:"heal,omitempty"`
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
	if p.Heal == "on" {
		l += "+heal"
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

// Expand resolves the grid into its ordered list of points: one walk over
// the experiment's keys, outermost first. Cells whose topology cannot be
// built at the cell's node count are skipped (hypercube off powers of two —
// the same cells the paper skips). A key the experiment does not read, set
// off its default, is an error naming the key.
func (g Grid) Expand() ([]Point, error) {
	g = g.withDefaults()
	if err := g.checkKeys(); err != nil {
		return nil, err
	}
	for _, l := range g.Levels {
		if err := checkVocab("levels", l); err != nil {
			return nil, err
		}
	}
	e := experiments[g.Experiment]
	var points []Point
	var walk func(i int, p Point) error
	walk = func(i int, p Point) error {
		if i < len(e.keys) {
			key := e.keys[i]
			for _, v := range g.values(key) {
				if v.Kind() == reflect.String && v.String() == unset[key] {
					v = reflect.ValueOf("")
				}
				q := p
				reflect.ValueOf(&q).Elem().FieldByName(pointField[key]).Set(v)
				if err := walk(i+1, q); err != nil {
					return err
				}
			}
			return nil
		}
		p.ContenderEvery = levelEvery[p.Level]
		spec, err := core.ParseSpec(p.Topo)
		if err != nil {
			return err
		}
		nodes := p.Nodes
		if e.nodes != nil {
			if nodes, err = e.nodes(p); err != nil {
				return err
			}
		}
		if _, err := spec.Build(nodes); err == nil {
			p.Index = len(points)
			points = append(points, p)
		}
		return nil
	}
	if err := walk(0, Point{Experiment: g.Experiment, Metrics: g.Metrics}); err != nil {
		return nil, err
	}
	return points, nil
}

// values lists the values grid key takes in g: the items of an axis, the
// repetition indices for reps, or the one value of a scalar.
func (g Grid) values(key string) []reflect.Value {
	f := reflect.ValueOf(g).Field(gridField[key])
	var out []reflect.Value
	switch {
	case key == "reps":
		for r := range g.Reps {
			out = append(out, reflect.ValueOf(r))
		}
	case f.Kind() == reflect.Slice:
		for i := range f.Len() {
			out = append(out, f.Index(i))
		}
	default:
		out = append(out, f)
	}
	return out
}

// pointField names the Point field each grid key sets.
var pointField = map[string]string{
	"topos": "Topo", "levels": "Level", "nodes": "Nodes", "msgsize": "MsgSize", "faults": "Faults",
	"seeds": "Seed", "reps": "Rep", "procs": "Procs", "agg": "Agg",
	"crashes": "Crashes", "heal": "Heal",
	"op": "Op", "ppn": "PPN", "iters": "Iters", "sample": "SampleEvery", "stream": "StreamLimit",
	"segs": "VecSegs", "window": "Window",
}

// unset is the value of a key that a point stores as "", which the JSON
// encoding omits: a toggle's "off" and the fault-free "none". A point's
// cache key is therefore what it was before the key existed.
var unset = map[string]string{"agg": "off", "heal": "off", "faults": "none"}

// Reindex renumbers assembled point lists into slice order. Callers that
// concatenate several expansions (cmd/vtreport's per-section grids) must
// call it before Runner.Run so results land in slice order.
func Reindex(points []Point) {
	for i := range points {
		points[i].Index = i
	}
}
