// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the root). It measures the simulator from
// outside: it times calls into each layer's public functions and reads the
// counters the layers already export; it changes nothing inside them.
//
// It is a module of its own (go.mod here replaces armcivt with the parent
// directory), run from the repository root:
//
//	go -C bench run . --workload hotspot --seed 1 --seconds 15 --trace 0
//
// runs one workload in this process and ends with one JSON line: the
// end-to-end metrics (--trace 0, metrics and tracing off) or the per-layer
// metrics of a traced rep and of the layer drivers that run under this
// workload (--trace 1). -cpuprofile writes a CPU profile of the run.
//
//	go -C bench run . -seed 1
//
// re-executes itself once per workload and trace mode, one child at a time so
// peak RSS and heap state belong to one workload, and writes the combined
// result and the spans of the traced reps under bench/out/.
//
//	go -C bench run . -compare A.json B.json
//
// compares two such results within the benchmark's own bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"armcivt/internal/obs"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one untraced run
// keeps taking measured reps (it always takes profile.minReps).
const defaultSeconds = 15

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run this one workload in-process and end with one JSON result line (hotspot, chaos_heal, scale_64k, app_dft)")
	seed := fs.Int64("seed", 1, "seed handed to ContentionConfig.Seed, ChaosConfig.Seed, ScaleConfig.Seed and the app_dft engines")
	seconds := fs.Float64("seconds", defaultSeconds, "how long an untraced run keeps taking measured reps")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, metrics and tracing off; 1: per-layer metrics from a traced rep and this workload's layer drivers")
	reportPath := fs.String("report", "", "with -workload: also write the detailed report (summaries, checks, spans) to this file")
	cpuProfile := fs.String("cpuprofile", "", "with -workload: write a CPU profile of the run to this file (how README.md's layer shares were measured)")
	outPath := fs.String("out", filepath.Join("out", "result.json"), "without -workload: where the combined result goes (relative to bench/ under go -C bench); the span file is written beside it")
	compare := fs.Bool("compare", false, "compare two combined results: bench -compare A.json B.json")
	// ExitOnError: Parse exits by itself on a bad flag.
	_ = fs.Parse(os.Args[1:])

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fatalf("usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)))
	case *workloadName != "":
		w := workloadNamed(*workloadName)
		if w == nil {
			fatalf("unknown -workload %q", *workloadName)
		}
		if *trace != 0 && *trace != 1 {
			fatalf("bad -trace %d (want 0 or 1)", *trace)
		}
		stop := startCPUProfile(*cpuProfile)
		r := runWorkload(w, full, *seed, *seconds, *trace == 1)
		stop()
		r.print(os.Stdout, *seed)
		if *reportPath != "" {
			if err := writeJSON(*reportPath, r); err != nil {
				fatalf("%v", err)
			}
		}
		if !r.correct() {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(*seed, *seconds, *outPath))
	}
}

// startCPUProfile profiles the process into path until the returned function
// is called; with no path it does nothing.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatalf("%v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// report is everything one run of one workload measured.
type report struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Metrics     map[string]summary `json:"metrics"`
	Checks      []check            `json:"checks"`
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"` // reps run, warm-up and traced included
	Failed      int                `json:"failed"`    // reps that errored or ended in another state
	Spans       []span             `json:"spans,omitempty"`
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

func (r *report) fail(name string, err error) {
	r.Checks = append(r.Checks, check{Name: name, Detail: err.Error()})
	r.Failed++
}

// runWorkload is one run as the contract defines it: a warm-up rep, then
// either measured untraced reps for `seconds` (end-to-end metrics) or a
// traced rep plus the layer drivers whose home this workload is (per-layer
// metrics).
func runWorkload(w *workload, p profile, seed int64, seconds float64, traced bool) *report {
	r := &report{Workload: w.name, Traced: traced, Metrics: map[string]summary{}}
	var first *repOut
	// rep runs one rep; every rep of a run must end in the same state as the
	// first, and only the first rep's (identical) checks are listed.
	rep := func(reg *obs.Registry, sp *spans) (repOut, sample, bool) {
		var out repOut
		var err error
		s := measure(func() {
			sp.do("rep", w.name+".rep", func() { out, err = w.rep(p, seed, reg, sp) })
		})
		r.Attempted++
		switch {
		case err != nil:
			r.fail(w.name+".rep", err)
			return out, s, false
		case first == nil:
			first = &out
			r.Checks = append(r.Checks, out.checks...)
			r.Fingerprint = fmt.Sprintf("%016x", out.fingerprint)
		case out.fingerprint != first.fingerprint || out.virtUsPerOp != first.virtUsPerOp:
			r.fail(w.name+".reps_identical", fmt.Errorf("fingerprint %016x, virt_us_per_op %v; first rep %016x, %v",
				out.fingerprint, out.virtUsPerOp, first.fingerprint, first.virtUsPerOp))
			return out, s, false
		}
		return out, s, true
	}

	// Warm-up: fills caches and grows the heap, and, with a registry
	// attached, counts the one-sided ops allocs_per_op divides by (virtual
	// results are identical with and without instrumentation).
	warmReg := obs.NewRegistry()
	warm, _, ok := rep(warmReg, nil)
	if !ok {
		return r
	}
	warmCounts := layerCounts(warm, warmReg, 0)
	ops := warmCounts["armci.ops"]

	if !traced {
		// The collector runs before each set-up sample too: without it a
		// sub-millisecond set-up mostly times the marking its own garbage
		// started (measured: 1.18 ms +-18% against 0.67 ms +-9%).
		var setups []float64
		for total := 0.0; len(setups) < p.minSetups || (total < p.setupSeconds && len(setups) < 500); {
			var err error
			s := measure(func() { err = w.setup(p, seed, nil) })
			if err != nil {
				r.fail(w.name+".setup", err)
				return r
			}
			setups = append(setups, s.wall)
			total += s.wall
		}
		var walls, cpus, allocs []float64
		for start := time.Now(); len(walls) < p.minReps || time.Since(start).Seconds() < seconds; {
			_, s, ok := rep(nil, nil)
			if !ok {
				return r
			}
			walls, cpus, allocs = append(walls, s.wall), append(cpus, s.cpu), append(allocs, s.mallocs/ops)
		}
		r.Metrics["wall_s"] = summarize(walls)
		r.Metrics["cpu_s"] = summarize(cpus)
		r.Metrics["setup_s"] = summarize(setups)
		r.Metrics["peak_rss_mb"] = single(peakRSSMiB())
		r.Metrics["allocs_per_op"] = summarize(allocs)
		r.Metrics["virt_us_per_op"] = single(first.virtUsPerOp)
		return r
	}

	// The untraced reference the traced rep's wall is divided by.
	var walls []float64
	for len(walls) < p.refReps {
		_, s, ok := rep(nil, nil)
		if !ok {
			return r
		}
		walls = append(walls, s.wall)
	}
	sp := newSpans()
	sp.rep = 1
	var err error
	sp.do("setup", w.name+".setup", func() { err = w.setup(p, seed, sp) })
	if err != nil {
		r.fail(w.name+".setup", err)
		return r
	}
	sp.rep = 2
	reg := obs.NewRegistry()
	out, s, ok := rep(reg, sp)
	if !ok {
		return r
	}
	r.Spans = sp.list
	counts := layerCounts(out, reg, median(walls))
	same := true
	for _, d := range perLayer {
		if v, isCount := counts[d.Name]; isCount && d.Exact && v != warmCounts[d.Name] {
			same = false
		}
	}
	r.Checks = append(r.Checks, checkf(w.name+".counts_repeat", same, "every exact count of the traced rep equals the warm-up rep's"))

	layer, err := runDrivers(w.name, p, seed)
	if err != nil {
		r.fail("layer_drivers", err)
		return r
	}
	layer["obs.traced_wall_ratio"] = single(s.wall / median(walls))
	for k, v := range counts {
		layer[k] = single(v)
	}
	byCall := sp.byCall()
	for _, d := range perLayer {
		if call, isSpan := strings.CutPrefix(d.Name, "span."); isSpan {
			layer[d.Name] = single(byCall[strings.TrimSuffix(call, "_s")])
		}
		v, ok := layer[d.Name]
		switch {
		case ok:
			r.Metrics[d.Name] = v
		case d.Home != "" && d.Home != w.name:
			r.Metrics[d.Name] = single(notMeasured)
		default:
			r.fail(d.Name, fmt.Errorf("declared per-layer metric was not measured"))
		}
	}
	return r
}

// print writes the human-readable table and, last, the contract's one-line
// JSON object.
func (r *report) print(w io.Writer, seed int64) {
	defs, mode := endToEnd, "untraced reps, metrics and tracing off"
	if r.Traced {
		defs, mode = perLayer, "one traced rep, its counts and spans, the layer drivers whose home this workload is"
	}
	fmt.Fprintf(w, "# bench: workload %s, seed %d, %s\n", r.Workload, seed, mode)
	fmt.Fprintf(w, "# %s\n", hostLine())
	fmt.Fprintln(w, "# wall_s, cpu_s, setup_s and every *_ns/_ms are host time; virt_* is simulated time. The model is")
	fmt.Fprintln(w, "# calibrated to the paper's shapes, not validated against Jaguar, so no error figure is given.")
	fmt.Fprintln(w, "# n is a handful of reps, too small for a tail percentile: median, min and max only.")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tmin\tmax\tn")
	line := map[string]any{}
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line[d.Name] = map[string]any{"value": s.Median, "unit": d.Unit}
		if d.Home != "" && d.Home != r.Workload {
			continue // another workload's layer driver: in the JSON line as -1, no table row
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, d.Unit, s.Median, s.Min, s.Max, s.N)
	}
	tw.Flush()
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "fingerprint %s\n", r.Fingerprint)
	last, err := json.Marshal(map[string]any{"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": line})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "%s\n", last)
}

func hostLine() string {
	return result{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0)}.host()
}

// result is the combined output of a full run: what -compare reads.
type result struct {
	NumCPU    int                        `json:"nproc"`
	GoVersion string                     `json:"go_version"`
	MaxProcs  int                        `json:"gomaxprocs"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Drivers holds every layer-driver metric once, from its home's traced run.
	Drivers map[string]summary `json:"drivers"`
}

func (r result) host() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d", r.GoVersion, r.NumCPU, r.MaxProcs)
}

type workloadResult struct {
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]summary `json:"per_layer"` // counts, spans and obs.traced_wall_ratio
	Checks      []check            `json:"checks"`
	Fingerprint string             `json:"fingerprint"`
}

// runAll runs every workload in a child of its own, untraced then traced,
// and writes the combined result and the span file.
func runAll(seed int64, seconds float64, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	dir := filepath.Dir(outPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	res := result{
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: seed, Workloads: map[string]*workloadResult{}, Drivers: map[string]summary{},
	}
	allSpans := map[string][]span{}
	failed := false
	for _, w := range workloads {
		wr := &workloadResult{}
		res.Workloads[w.name] = wr
		for trace := 0; trace <= 1; trace++ {
			tmp := filepath.Join(dir, fmt.Sprintf("report.%s.%d.json", w.name, trace))
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-report", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s --trace %d: %v\n", w.name, trace, err)
				failed = true
			}
			var r report
			if err := readJSON(tmp, &r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				failed = true
				continue
			}
			// The child's report is folded into the result; leave no temp file.
			_ = os.Remove(tmp)
			if r.Traced {
				wr.PerLayer = map[string]summary{}
				for _, d := range perLayer {
					switch d.Home {
					case "":
						wr.PerLayer[d.Name] = r.Metrics[d.Name]
					case w.name:
						res.Drivers[d.Name] = r.Metrics[d.Name]
					}
				}
				allSpans[w.name] = r.Spans
			} else {
				wr.EndToEnd = r.Metrics
				wr.Fingerprint = r.Fingerprint
			}
			wr.Checks = append(wr.Checks, r.Checks...)
		}
	}
	spanPath := filepath.Join(dir, "spans."+filepath.Base(outPath))
	if err := writeJSON(outPath, res); err != nil {
		fatalf("%v", err)
	}
	if err := writeJSON(spanPath, allSpans); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\n# %s, commit %s, seed %d: end-to-end medians per workload\n", res.host(), res.Commit, seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "\t%s (%s)", d.Name, d.Unit)
	}
	fmt.Fprintln(tw)
	for _, w := range workloads {
		fmt.Fprint(tw, w.name)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "\t%.6g", res.Workloads[w.name].EndToEnd[d.Name].Median)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Printf("result: %s\nspans:  %s\n", outPath, spanPath)
	if failed {
		return 1
	}
	return 0
}

// commit names the checkout for the result header; a checkout that is not a
// git repository is reported as such, not guessed.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
