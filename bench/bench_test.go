package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tiny is the program's code at sizes that smoke-run every workload and
// driver in a second or two. Only this test can reach it: the program
// measures at full and nothing else.
var tiny = profile{
	hotspotNodes: 16, hotspotIters: 2, chaosNodes: 16, scaleNodes: 1024, dftNodes: 4,
	big: 1024, driverDiv: 200, driverReps: 1, minReps: 1, refReps: 1, minSetups: 1,
}

// TestEveryWorkloadEmitsEveryDeclaredMetric smoke-runs all four workloads at
// the tiny profile, untraced and traced, through the same code the driver
// runs, and checks the emitted metric set against the declared tables.
func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	measuredUnder := map[string][]string{} // layer-driver metric -> workloads that measured it
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			r := runWorkload(&w, tiny, 1, 0, traced)
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Detail)
				}
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(r.Metrics), len(defs))
			}
			seen := map[string]bool{}
			for _, d := range defs {
				if seen[d.Name] {
					t.Errorf("metric %s declared twice", d.Name)
				}
				seen[d.Name] = true
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				}
				s, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s was not emitted", w.name, traced, d.Name)
					continue
				}
				if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
					t.Errorf("%s traced=%v: %s = %v, want a finite value", w.name, traced, d.Name, s.Median)
				}
				if !traced && s.Median <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, s.Median)
				}
				if d.Home != "" && s.Median != notMeasured {
					measuredUnder[d.Name] = append(measuredUnder[d.Name], w.name)
				}
			}

			// The last line of the output is the contract's JSON object.
			var buf bytes.Buffer
			r.print(&buf, 1)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s traced=%v: last output line is not the result object: %v", w.name, traced, err)
			}
			if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
				t.Errorf("%s traced=%v: result line %s", w.name, traced, lines[len(lines)-1])
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line carries %d metrics, want %d", w.name, traced, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s in %s", w.name, traced, d.Name, d.Unit)
				}
			}
		}
	}
	// A layer driver is measured once per full run: under its home, nowhere else.
	for _, d := range perLayer {
		if got := measuredUnder[d.Name]; d.Home != "" && !reflect.DeepEqual(got, []string{d.Home}) {
			t.Errorf("%s: measured under %v, its home is %s", d.Name, got, d.Home)
		}
	}
}

// TestBenchmarkJSONMatchesProgram is the drift check, both directions:
// BENCHMARK.json declares exactly the workloads and metrics the program
// emits, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "-C", "bench", "run", "armcivt/bench"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command %v, want %v", decl.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths %v, want %v", decl.Paths, want)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d is declared as %q (%q), the program has %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, the program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: declared %+v, the program has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound declared as %v, the program has %v", kind, d.Name, g.Bound, d.Bound)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v is outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}

// TestQuantileMatchesPython pins quantile to the values Python's
// statistics.quantiles(range(1, 11), n=4) gives: [2.75, 5.5, 8.25].
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s := summarize(xs)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := endToEnd[0]
	virt := endToEnd[len(endToEnd)-1]
	if !virt.Exact || wall.Exact {
		t.Fatalf("table order changed: %+v, %+v", wall, virt)
	}
	steady := func(m float64) summary { return summary{Median: m, Q1: m, Q3: m, N: 5} }
	noisy := summary{Median: 1, Q1: 1 - wall.Bound, Q3: 1 + wall.Bound, N: 5} // spread twice the bound
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{wall, steady(1), steady(1.05), "ok"},
		{wall, steady(1), steady(1 + wall.Bound + 0.01), "worse"},
		{wall, steady(1), steady(0.5), "ok"},
		{wall, noisy, steady(1.05), "unresolved"},
		{virt, steady(1), steady(1), "ok"},
		{virt, steady(1), steady(0.999999), "differs"},
	} {
		if got := verdictOf(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: A %v, B %v: verdict %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
