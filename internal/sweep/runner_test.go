package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"armcivt/internal/obs"
	"armcivt/internal/sim"
)

// tinyGrid is a real (simulating) contention grid small enough for unit
// tests: 2 topologies x 2 levels at 9 nodes.
func tinyGrid() Grid {
	return Grid{
		Experiment:  ExpContention,
		Topos:       []string{"FCG", "MFCG"},
		Levels:      []string{"none", "20"},
		Nodes:       []int{9},
		PPN:         1,
		Iters:       2,
		SampleEvery: 2,
	}
}

func mustExpand(t *testing.T, g Grid) []Point {
	t.Helper()
	points, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("grid expanded to zero points")
	}
	return points
}

// TestMergedOutputIndependentOfWorkers is the determinism-under-parallelism
// contract: a serial pool and an 8-wide pool must render byte-identical
// merged tables (and identical raw results), because every point is an
// independent deterministic simulation returned in expansion order.
func TestMergedOutputIndependentOfWorkers(t *testing.T) {
	points := mustExpand(t, tinyGrid())
	serial, sst := (&Runner{Workers: 1}).Run(points)
	wide, wst := (&Runner{Workers: 8}).Run(points)
	if sst.Executed != len(points) || wst.Executed != len(points) {
		t.Fatalf("executed %d/%d of %d", sst.Executed, wst.Executed, len(points))
	}
	a, b := Fingerprint(Tables(serial)), Fingerprint(Tables(wide))
	if a != b {
		t.Fatalf("merged tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", a, b)
	}
	for i := range serial {
		if fmt.Sprint(serial[i].X, serial[i].Y) != fmt.Sprint(wide[i].X, wide[i].Y) {
			t.Fatalf("point %d raw results differ across worker counts", i)
		}
	}
}

// TestCacheSecondRunExecutesZeroPoints: a repeated sweep against the same
// cache directory must serve every point from cache and still produce
// byte-identical merged output.
func TestCacheSecondRunExecutesZeroPoints(t *testing.T) {
	points := mustExpand(t, tinyGrid())
	dir := t.TempDir()
	first, fst := (&Runner{Workers: 4, CacheDir: dir}).Run(points)
	if fst.Executed != len(points) || fst.CacheHits != 0 {
		t.Fatalf("first run: executed %d, cached %d", fst.Executed, fst.CacheHits)
	}
	second, sst := (&Runner{Workers: 4, CacheDir: dir}).Run(points)
	if sst.Executed != 0 || sst.CacheHits != len(points) {
		t.Fatalf("second run: executed %d, cached %d (want 0, %d)", sst.Executed, sst.CacheHits, len(points))
	}
	if sst.CacheHitRate() != 1 {
		t.Fatalf("hit rate = %v", sst.CacheHitRate())
	}
	if Fingerprint(Tables(first)) != Fingerprint(Tables(second)) {
		t.Fatal("cached results render differently from live results")
	}
	for _, r := range second {
		if !r.Cached {
			t.Fatalf("point %d not marked cached", r.Point.Index)
		}
	}
}

// TestFailedResultsAreNotCached: a failing point must be retried on the
// next run, not served from cache.
func TestFailedResultsAreNotCached(t *testing.T) {
	points := []Point{{Experiment: ExpContention, Topo: "FCG", Nodes: 4, PPN: 1}}
	Reindex(points)
	dir := t.TempDir()
	fail := &Runner{Workers: 1, CacheDir: dir, Exec: func(p Point, _ ExecOptions) Result {
		return Result{Point: p, Label: p.Label(), Err: "boom"}
	}}
	if _, st := fail.Run(points); st.Failures != 1 {
		t.Fatal("failing executor did not fail")
	}
	executed := 0
	ok := &Runner{Workers: 1, CacheDir: dir, Exec: func(p Point, _ ExecOptions) Result {
		executed++
		return Result{Point: p, Label: p.Label(), Value: 1}
	}}
	if _, st := ok.Run(points); st.CacheHits != 0 || executed != 1 {
		t.Fatalf("failed result was served from cache (hits=%d executed=%d)", st.CacheHits, executed)
	}
}

// A cache entry that exists but is damaged must be treated as a miss (the
// point re-executes and rewrites it), evicted from disk, and counted as
// sweep_cache_corrupt_total — never parsed into a wrong result and never able
// to poison later runs.
func TestCorruptCacheEntryEvictedAndRecounted(t *testing.T) {
	points := []Point{{Experiment: ExpContention, Topo: "FCG", Nodes: 4, PPN: 1}}
	Reindex(points)
	dir := t.TempDir()
	executed := 0
	r := func() *Runner {
		return &Runner{Workers: 1, CacheDir: dir, Metrics: obs.NewRegistry(),
			Exec: func(p Point, _ ExecOptions) Result {
				executed++
				return Result{Point: p, Label: p.Label(), Value: 7}
			}}
	}
	if _, st := r().Run(points); st.Executed != 1 {
		t.Fatalf("seeding run executed %d points", st.Executed)
	}

	// Truncate the entry on purpose: the crash/torn-write signature.
	path := filepath.Join(dir, points[0].Key()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	run2 := r()
	_, st := run2.Run(points)
	if st.Executed != 1 || st.CacheHits != 0 || st.CacheCorrupt != 1 || executed != 2 {
		t.Fatalf("corrupt entry not re-executed: %+v (executed %d)", st, executed)
	}
	if got := run2.Metrics.Counter("sweep_cache_corrupt_total").Value(); got != 1 {
		t.Fatalf("sweep_cache_corrupt_total = %v, want 1", got)
	}

	// The re-execution rewrote a healthy entry: third run is a pure hit.
	if _, st := r().Run(points); st.CacheHits != 1 || st.CacheCorrupt != 0 {
		t.Fatalf("entry not healed: %+v", st)
	}
}

// TestPanicIsolation: a panicking point becomes its own Result.Err — whether
// the executor itself panics or a simulated process does, deep inside
// Engine.Run — and the sweep still completes with every other point intact.
func TestPanicIsolation(t *testing.T) {
	var points []Point
	for i := 0; i < 6; i++ {
		points = append(points, Point{Experiment: ExpContention, Topo: fmt.Sprintf("T%d", i)})
	}
	Reindex(points)
	r := &Runner{Workers: 3, Exec: func(p Point, _ ExecOptions) Result {
		if p.Index == 2 {
			panic("simulated executor bug")
		}
		if p.Index == 4 {
			eng := sim.New()
			defer eng.Shutdown()
			eng.Spawn("rank0", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				panic("simulated rank bug")
			})
			_ = eng.Run()
		}
		return Result{Point: p, Label: p.Label(), Value: float64(p.Index)}
	}}
	results, st := r.Run(points)
	if st.Failures != 2 {
		t.Fatalf("failures = %d, want 2", st.Failures)
	}
	for i, res := range results {
		if res.Point.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Point.Index)
		}
		if i == 2 {
			if res.Err == "" || res.Err != "panic: simulated executor bug" {
				t.Fatalf("panic not captured: %q", res.Err)
			}
			continue
		}
		if i == 4 {
			if res.Err != "panic: simulated rank bug" {
				t.Fatalf("process-body panic not captured: %q", res.Err)
			}
			continue
		}
		if res.Err != "" || res.Value != float64(i) {
			t.Fatalf("point %d corrupted by neighbour's panic: %+v", i, res)
		}
	}
}
