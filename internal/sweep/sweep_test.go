package sweep

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestParseGridFillsFields(t *testing.T) {
	g, err := ParseGrid("exp=contention; op=fadd; topos=Fcg,MFCG ,cfcg; levels=none,20; " +
		"nodes=16,64; msgsize=128,1024; ppn=2; iters=5; sample=4; stream=8; segs=16; reps=2; " +
		"seeds=1,7; faults=none|cht:1@t=1ms,link:0-1@t=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if g.Experiment != ExpContention || g.Op != "fadd" {
		t.Fatalf("exp/op = %q/%q", g.Experiment, g.Op)
	}
	// Topology names are canonicalized so labels and cache keys are
	// case-insensitive in the spec.
	if got := strings.Join(g.Topos, ","); got != "FCG,MFCG,CFCG" {
		t.Fatalf("topos = %q", got)
	}
	if len(g.Levels) != 2 || len(g.Nodes) != 2 || len(g.Sizes) != 2 || len(g.Seeds) != 2 {
		t.Fatalf("axes = %v %v %v %v", g.Levels, g.Nodes, g.Sizes, g.Seeds)
	}
	// Fault alternatives are |-separated because specs contain commas.
	if len(g.Faults) != 2 || g.Faults[1] != "cht:1@t=1ms,link:0-1@t=2ms" {
		t.Fatalf("faults = %q", g.Faults)
	}
	if g.PPN != 2 || g.Iters != 5 || g.SampleEvery != 4 || g.StreamLimit != 8 || g.VecSegs != 16 || g.Reps != 2 {
		t.Fatalf("scalars = %+v", g)
	}
}

func TestParseGridErrors(t *testing.T) {
	// want is a substring the error must contain: the bad value, or the
	// key that is repeated or lists a value twice.
	for _, tc := range []struct{ spec, want string }{
		{"exp=quantum", `"quantum"`},
		{"op=putget", `"putget"`},
		{"topos=ring", "ring"},
		{"levels=50", `"50"`},
		{"nodes=x", "nodes"},
		{"seeds=abc", "seeds"},
		{"banana=1", `"banana"`},
		{"just-a-word", "just-a-word"},
		{"topos=fcg;topos=mfcg", `"topos"`},
		{"nodes=64;nodes=128", `"nodes"`},
		{"exp=chaos;heal=on;heal=off", `"heal"`},
		{"levels=none,none", `"levels"`},
		{"seeds=1,01", `"seeds"`},
		{"topos=fcg,FCG", `"topos"`},
		{"faults=none|", `"faults"`},
	} {
		_, err := ParseGrid(tc.spec)
		if err == nil {
			t.Errorf("ParseGrid(%q) accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseGrid(%q) error %q does not name %s", tc.spec, err, tc.want)
		}
	}
}

func TestExpandContentionOrder(t *testing.T) {
	g := Grid{
		Experiment: ExpContention,
		Topos:      []string{"FCG", "MFCG"},
		Levels:     []string{"none", "20"},
		Nodes:      []int{16},
	}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		got = append(got, p.Level+"/"+p.Topo)
	}
	// Levels are the outer axis, topologies innermost: one merged table per
	// level with its topologies side by side.
	want := "none/FCG,none/MFCG,20/FCG,20/MFCG"
	if strings.Join(got, ",") != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
	if points[0].ContenderEvery != 0 || points[2].ContenderEvery != 5 {
		t.Fatalf("contender-every = %d/%d", points[0].ContenderEvery, points[2].ContenderEvery)
	}
	if points[0].Faults != "" {
		t.Fatalf("default fault spec = %q, want empty", points[0].Faults)
	}
}

func TestExpandSkipsInfeasibleCells(t *testing.T) {
	g := Grid{Topos: []string{"FCG", "Hypercube"}, Levels: []string{"none"}, Nodes: []int{33}}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Topo == "Hypercube" {
			t.Fatal("hypercube at 33 nodes should be skipped (not a power of two)")
		}
	}
	g.Nodes = []int{32}
	points, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expected FCG+Hypercube at 32 nodes, got %d points", len(points))
	}
}

func TestExpandMemscale(t *testing.T) {
	g := Grid{Experiment: ExpMemscale, Procs: []int{24, 48}, PPN: 12, Topos: []string{"FCG", "MFCG"}}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 || points[1].Topo != "FCG" || points[1].Procs != 48 {
		t.Fatalf("memscale expansion = %+v", points)
	}
	g.Procs = []int{25}
	if _, err := g.Expand(); err == nil {
		t.Fatal("procs not divisible by ppn should error")
	}
}

// TestExpandRejectsUnusedKeys: a grid key the experiment does not read,
// set off its default, fails the expansion with an error naming the key
// instead of vanishing from the points; the same keys at their defaults
// are accepted.
func TestExpandRejectsUnusedKeys(t *testing.T) {
	for spec, want := range map[string]string{
		"exp=chaos;topos=mfcg;nodes=16;agg=on;overload=on;window=8;faults=cht:1@t=1ms": "exp=chaos does not use grid key(s) faults, agg, overload, window",
		"exp=memscale;levels=20;iters=5":                                               "exp=memscale does not use grid key(s) levels, iters",
		"exp=overload;heal=on;crashes=1":                                               "exp=overload does not use grid key(s) crashes, heal",
		"exp=contention;storm=4;procs=96":                                              "exp=contention does not use grid key(s) procs, storm",
	} {
		g, err := ParseGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Expand(%q) error = %v, want %q", spec, err, want)
		}
	}
	for _, spec := range []string{
		"exp=chaos;topos=mfcg;nodes=16;agg=off;overload=off;window=0;faults=none",
		"exp=memscale;topos=fcg;procs=96;seeds=1;reps=1;heal=off",
		"exp=overload;topos=fcg;nodes=16;heal=off;crashes=3",
	} {
		g, err := ParseGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Expand(); err != nil {
			t.Errorf("Expand(%q): %v", spec, err)
		}
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	base := Point{Experiment: ExpContention, Topo: "MFCG", Nodes: 64, PPN: 2, Op: "vput",
		Level: "20", ContenderEvery: 5, Iters: 5, SampleEvery: 8, VecSegs: 32, MsgSize: 256}
	if k := base.Key(); len(k) != 64 || k != base.Key() {
		t.Fatalf("key not a stable sha256 hex: %q", k)
	}
	// The expansion index is position, not identity: the same cell of a
	// differently shaped grid must reuse the same cached result.
	moved := base
	moved.Index = 17
	if moved.Key() != base.Key() {
		t.Fatal("Index changed the cache key")
	}
	// Every result-influencing field must change the key.
	for name, mutate := range map[string]func(*Point){
		"topo":    func(p *Point) { p.Topo = "FCG" },
		"nodes":   func(p *Point) { p.Nodes = 128 },
		"op":      func(p *Point) { p.Op = "fadd" },
		"level":   func(p *Point) { p.Level = "11"; p.ContenderEvery = 9 },
		"iters":   func(p *Point) { p.Iters = 6 },
		"msgsize": func(p *Point) { p.MsgSize = 512 },
		"faults":  func(p *Point) { p.Faults = "cht:1@t=1ms" },
		"seed":    func(p *Point) { p.Seed = 2 },
		"rep":     func(p *Point) { p.Rep = 1 },
		"metrics": func(p *Point) { p.Metrics = true },
	} {
		p := base
		mutate(&p)
		if p.Key() == base.Key() {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
}

func TestLabelAndEffectiveSeed(t *testing.T) {
	p := Point{Topo: "MFCG"}
	if p.Label() != "MFCG" {
		t.Fatalf("label = %q", p.Label())
	}
	p.Seed = 1 // the engine's own default: no suffix
	if p.Label() != "MFCG" {
		t.Fatalf("label with default seed = %q", p.Label())
	}
	p.Seed, p.Rep = 7, 2
	if p.Label() != "MFCG/s7/r2" {
		t.Fatalf("label = %q", p.Label())
	}
	if got := p.EffectiveSeed(); got != 7+2*1_000_003 {
		t.Fatalf("effective seed = %d", got)
	}
}

func TestReindex(t *testing.T) {
	points := []Point{{Topo: "A", Index: 9}, {Topo: "B", Index: 9}}
	Reindex(points)
	if points[0].Index != 0 || points[1].Index != 1 {
		t.Fatalf("reindexed = %+v", points)
	}
}

func TestAggAxisExpansionAndCacheKeys(t *testing.T) {
	g, err := ParseGrid("exp=contention;topos=fcg;nodes=16;levels=20;window=8;agg=off,on;adapt=off,on")
	if err != nil {
		t.Fatal(err)
	}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4 (agg x adapt)", len(points))
	}
	// The off/off point must carry empty toggles so its cache key equals the
	// pre-aggregation encoding of the same cell minus the new fields only
	// when those fields are zero-valued.
	off := points[0]
	if off.Agg != "" || off.Adapt != "" {
		t.Fatalf("off point toggles = %q/%q, want empty", off.Agg, off.Adapt)
	}
	legacy := off
	legacy.Window, legacy.Agg, legacy.Adapt = 0, "", ""
	if off.Key() == legacy.Key() {
		t.Fatal("window=8 did not change the cache key")
	}
	on := points[3]
	if on.Agg != "on" || on.Adapt != "on" {
		t.Fatalf("on point toggles = %q/%q", on.Agg, on.Adapt)
	}
	if on.Key() == off.Key() {
		t.Fatal("agg toggle did not change the cache key")
	}
	if got := on.Label(); got != "FCG+agg+adapt" {
		t.Fatalf("label = %q", got)
	}
	// Zero-valued new fields leave the encoding — and therefore every
	// pre-existing cache key — untouched.
	if k1, k2 := (Point{Experiment: ExpContention, Topo: "FCG", Nodes: 16, PPN: 4}).Key(),
		(Point{Experiment: ExpContention, Topo: "FCG", Nodes: 16, PPN: 4, Window: 0, Agg: "", Adapt: ""}).Key(); k1 != k2 {
		t.Fatal("zero-valued toggles changed the cache key")
	}
}

func TestParseGridAggErrors(t *testing.T) {
	for _, spec := range []string{"agg=maybe", "adapt=1", "window=x"} {
		if _, err := ParseGrid(spec); err == nil {
			t.Errorf("ParseGrid(%q) accepted", spec)
		}
	}
}

func TestCompareAgg(t *testing.T) {
	mk := func(agg string, y float64) Result {
		p := Point{Experiment: ExpContention, Topo: "FCG", Nodes: 16, PPN: 4, Level: "20", Window: 8, Agg: agg}
		return Result{Point: p, Label: p.Label(), Y: []float64{y}}
	}
	cmps, err := CompareAgg([]Result{mk("", 100), mk("on", 50)})
	if err != nil {
		t.Fatalf("winning pair reported error: %v", err)
	}
	if len(cmps) != 1 || cmps[0].Speedup != 2 {
		t.Fatalf("cmps = %+v", cmps)
	}
	if _, err := CompareAgg([]Result{mk("", 100), mk("on", 102)}); err == nil {
		t.Fatal("regressed pair not reported")
	}
	if _, err := CompareAgg([]Result{mk("", 100)}); err == nil {
		t.Fatal("unpaired results not reported")
	}
}

func TestChaosExpansionAndCacheKeys(t *testing.T) {
	g, err := ParseGrid("exp=chaos;topos=mfcg;nodes=64;crashes=2,4;heal=off,on;seeds=1;iters=10")
	if err != nil {
		t.Fatal(err)
	}
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded %d points, want 4 (crashes x heal)", len(points))
	}
	// Order is crashes-outer, heal-inner, so paired off/on cells are adjacent.
	off, on := points[0], points[1]
	if off.Crashes != 2 || off.Heal != "" {
		t.Fatalf("off point = crashes %d heal %q, want 2/empty", off.Crashes, off.Heal)
	}
	if on.Crashes != 2 || on.Heal != "on" {
		t.Fatalf("on point = crashes %d heal %q, want 2/on", on.Crashes, on.Heal)
	}
	if points[2].Crashes != 4 {
		t.Fatalf("third point crashes = %d, want 4", points[2].Crashes)
	}
	if on.Key() == off.Key() {
		t.Fatal("heal toggle did not change the cache key")
	}
	if got := on.Label(); got != "MFCG+heal" {
		t.Fatalf("label = %q", got)
	}
	if got := off.Label(); got != "MFCG" {
		t.Fatalf("off label = %q", got)
	}
	// Zero-valued chaos fields leave every pre-existing contention cache key
	// untouched — the same back-compat rule the aggregation fields follow.
	if k1, k2 := (Point{Experiment: ExpContention, Topo: "FCG", Nodes: 16, PPN: 4}).Key(),
		(Point{Experiment: ExpContention, Topo: "FCG", Nodes: 16, PPN: 4, Crashes: 0, Heal: ""}).Key(); k1 != k2 {
		t.Fatal("zero-valued chaos fields changed the cache key")
	}
}

func TestChaosDefaults(t *testing.T) {
	g, err := ParseGrid("exp=chaos")
	if err != nil {
		t.Fatal(err)
	}
	d := g.withDefaults()
	if got := d.Nodes; len(got) != 1 || got[0] != 64 {
		t.Fatalf("default nodes = %v, want [64]", got)
	}
	if d.PPN != 2 {
		t.Fatalf("default ppn = %d, want 2", d.PPN)
	}
	if got := d.Crashes; len(got) != 1 || got[0] != 3 {
		t.Fatalf("default crashes = %v, want [3]", got)
	}
	if got := d.Heals; len(got) != 1 || got[0] != "on" {
		t.Fatalf("default heals = %v, want [on]", got)
	}
}

func TestParseGridChaosErrors(t *testing.T) {
	for _, spec := range []string{"heal=maybe", "crashes=x", "exp=chaos;crashes=1,zz"} {
		if _, err := ParseGrid(spec); err == nil {
			t.Errorf("ParseGrid(%q) accepted", spec)
		}
	}
}

func TestExecuteChaosPoint(t *testing.T) {
	p := Point{
		Experiment: ExpChaos, Topo: "MFCG",
		Nodes: 16, PPN: 2, Iters: 5, Crashes: 1, Heal: "on", Seed: 1,
	}
	res := Execute(p, ExecOptions{})
	if res.Err != "" {
		t.Fatalf("chaos point failed: %s", res.Err)
	}
	if res.Value != 0 {
		t.Fatalf("healed single-crash run failed %v survivor ops, want 0", res.Value)
	}
	if res.Label != "MFCG+heal" {
		t.Fatalf("label = %q", res.Label)
	}
}

// TestContentionHealToggleGolden pins the contract of the heal= grid key on
// contention grids: arming healing on a fault-free contention point changes
// the series label and the cache key, but the simulation output is
// bit-identical — membership and self-healing only engage under node:
// crash-stop faults.
func TestContentionHealToggleGolden(t *testing.T) {
	base := Point{
		Experiment: ExpContention, Topo: "MFCG",
		Nodes: 16, PPN: 2, Iters: 3, SampleEvery: 2,
	}
	healed := base
	healed.Heal = "on"
	r0 := Execute(base, ExecOptions{})
	r1 := Execute(healed, ExecOptions{})
	if r0.Err != "" || r1.Err != "" {
		t.Fatalf("runs failed: %q / %q", r0.Err, r1.Err)
	}
	if len(r0.Y) == 0 {
		t.Fatal("baseline produced no samples")
	}
	if !reflect.DeepEqual(r0.X, r1.X) || !reflect.DeepEqual(r0.Y, r1.Y) {
		t.Fatalf("fault-free -heal run diverged from baseline:\n  off X=%v Y=%v\n  on  X=%v Y=%v",
			r0.X, r0.Y, r1.X, r1.Y)
	}
	if healed.Key() == base.Key() {
		t.Fatal("heal toggle did not change the cache key")
	}
	if r1.Label != "MFCG+heal" {
		t.Fatalf("healed label = %q", r1.Label)
	}
}

// FuzzParseGrid: ParseGrid never panics, a grid it accepts either expands
// or returns an error, and the expanded points have distinct cache keys
// and Index equal to their position.
func FuzzParseGrid(f *testing.F) {
	for _, spec := range []string{
		"",
		"exp=memscale;ppn=12;procs=768,1536",
		"exp=contention;op=fadd;topos=fcg,mfcg;nodes=16;levels=none,20;seeds=1,2;reps=2",
		"exp=chaos;nodes=16;crashes=1,2;heal=off,on;seeds=3",
		"exp=overload;nodes=16;storm=1,2;tenants=2;overload=off,on",
		"topos=hyperx:4x4x2,dragonfly:g=8,a=4,h=2;nodes=32;levels=20;agg=off,on;adapt=on;window=8",
		"faults=none|cht:1@t=1ms;levels=20;nodes=16;msgsize=64,128",
		"exp=chaos;agg=on",
		"levels=none,none",
		"nodes=64;nodes=128",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGrid(spec)
		if err != nil {
			return
		}
		// Keep the expansion small: few cells, small topologies.
		cells := max(g.Reps, 1)
		v := reflect.ValueOf(*g)
		for i := range v.NumField() {
			if v.Field(i).Kind() == reflect.Slice {
				cells *= max(v.Field(i).Len(), 1)
			}
		}
		big := func(n int) bool { return n > 1<<14 }
		if cells > 64 || slices.ContainsFunc(g.Nodes, big) || slices.ContainsFunc(g.Procs, big) {
			t.Skip()
		}
		points, err := g.Expand()
		if err != nil {
			return
		}
		seen := map[string]int{}
		for i, p := range points {
			if p.Index != i {
				t.Fatalf("%q: point %d has Index %d", spec, i, p.Index)
			}
			if j, dup := seen[p.Key()]; dup {
				t.Fatalf("%q: points %d and %d share a cache key: %+v", spec, j, i, p)
			}
			seen[p.Key()] = i
		}
	})
}

// TestDocsExperimentKeys: docs/SWEEP.md's "experiment | keys" table lists
// every experiment of the table with exactly its keys, in expansion order,
// and no experiment the table lacks.
func TestDocsExperimentKeys(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SWEEP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rows, ok := strings.Cut(string(doc), "| experiment | keys |\n|---|---|\n")
	if !ok {
		t.Fatal(`docs/SWEEP.md has no "| experiment | keys |" table`)
	}
	rows, _, _ = strings.Cut(rows, "\n\n")
	documented := map[string]bool{}
	for _, row := range strings.Split(rows, "\n") {
		cells := strings.Split(strings.Trim(row, "| "), " | ")
		if len(cells) != 2 {
			t.Fatalf("malformed row %q", row)
		}
		name := strings.Trim(cells[0], "`")
		documented[name] = true
		e, ok := experiments[name]
		if !ok {
			t.Errorf("docs/SWEEP.md lists experiment %q, which the table lacks", name)
			continue
		}
		if got, want := strings.ReplaceAll(cells[1], "`", ""), strings.Join(e.keys, ", "); got != want {
			t.Errorf("docs/SWEEP.md keys of %s:\n got %s\nwant %s", name, got, want)
		}
	}
	for name := range experiments {
		if !documented[name] {
			t.Errorf("experiment %q is not in docs/SWEEP.md's keys table", name)
		}
	}
}
