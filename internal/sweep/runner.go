package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"armcivt/internal/ckpt"
	"armcivt/internal/obs"
)

// wallBuckets spans per-point wall-clock costs: 100 us to ~1.6 h in 2x
// steps (points range from sub-millisecond memscale cells to minutes-long
// full-scale contention runs).
var wallBuckets = func() []float64 {
	out := make([]float64, 26)
	v := 100.0 // microseconds
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}()

// Stats summarizes one Runner.Run invocation for progress reporting and
// cmd/sweep's stderr summary line.
type Stats struct {
	Points    int           // points requested
	Executed  int           // points actually simulated this run
	CacheHits int           // points served from the result cache
	Failures  int           // points that returned an error or panicked
	Workers   int           // pool size used
	Wall      time.Duration // elapsed wall-clock of the whole sweep
	// SerialWall is the sum of per-point execution wall-clocks (cache hits
	// contribute nothing): what a -j 1 run of the executed points would
	// cost, the denominator-free baseline for SpeedupVsSerial.
	SerialWall time.Duration
	// CacheCorrupt counts cache entries that existed but were damaged; each
	// was evicted and its point re-executed.
	CacheCorrupt int
}

// SpeedupVsSerial reports how much faster the pool ran the executed points
// than a serial pool would have (1.0 when nothing ran in parallel, 0 when
// nothing executed at all).
func (s Stats) SpeedupVsSerial() float64 {
	if s.Wall <= 0 || s.Executed == 0 {
		return 0
	}
	return float64(s.SerialWall) / float64(s.Wall)
}

// CacheHitRate is the fraction of points served from cache.
func (s Stats) CacheHitRate() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Points)
}

// Runner executes expanded points on a bounded worker pool.
//
// Correctness does not depend on Workers: every point runs a fresh
// single-threaded engine sharing no state, and results are returned in
// point-index order regardless of completion order, so merged outputs are
// byte-identical at any pool size. One panicking or failing point is
// isolated to its Result.Err; the sweep always completes.
type Runner struct {
	// Workers is the pool size; <= 0 uses runtime.NumCPU().
	Workers int
	// CacheDir, when non-"", enables the content-addressed result cache:
	// a point whose Key() has a stored result is not re-executed. Failed
	// results are never cached.
	CacheDir string
	// Metrics, when non-nil, receives the sweep_* progress metrics
	// (schema in docs/SWEEP.md). Updated only from the collector, so the
	// non-goroutine-safe registry is safe here at any worker count.
	Metrics *obs.Registry
	// Progress, when non-nil, is called after every completed point with
	// the running tally and an ETA extrapolated from throughput so far.
	Progress func(done, total int, st Stats, eta time.Duration)
	// ExecOptions is forwarded to the executor for every point. Shards
	// multiplies with Workers: Workers points run concurrently, each on
	// Shards lanes. Trace is not goroutine-safe, so a non-nil Trace forces a
	// serial pool and, because a cache hit would silently drop the run's
	// spans, bypasses the cache. Results and cache keys are unaffected.
	ExecOptions
	// Exec overrides the point executor (tests); nil uses Execute.
	Exec func(Point, ExecOptions) Result
}

// Run executes all points and returns their results in point-index order
// together with the run's statistics.
func (r *Runner) Run(points []Point) ([]Result, Stats) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if r.Trace != nil {
		workers = 1
	}
	if workers > len(points) {
		workers = len(points)
	}
	st := Stats{Points: len(points), Workers: workers}
	results := make([]Result, len(points))
	if len(points) == 0 {
		return results, st
	}

	start := time.Now()
	jobs := make(chan Point)
	done := make(chan Result)
	for w := 0; w < workers; w++ {
		go func() {
			for p := range jobs {
				done <- r.runPoint(p)
			}
		}()
	}
	go func() {
		for _, p := range points {
			jobs <- p
		}
		close(jobs)
	}()

	m := r.Metrics
	m.Gauge("sweep_workers").Set(float64(workers))
	m.Counter("sweep_points_total").Add(float64(len(points)))
	// The corruption counter registers up front (at zero) so the metric
	// surface is identical whether or not a run exercises it — the
	// docs-drift tests depend on the full name set appearing every run.
	m.Counter("sweep_cache_corrupt_total").Add(0)
	for completed := 0; completed < len(points); completed++ {
		res := <-done
		results[res.Point.Index] = res
		switch {
		case res.Cached:
			st.CacheHits++
			m.Counter("sweep_cache_hits_total").Inc()
		default:
			st.Executed++
			st.SerialWall += time.Duration(res.WallNS)
			m.Counter("sweep_executed_total").Inc()
			m.Histogram("sweep_point_wall_us", wallBuckets).Observe(float64(res.WallNS) / 1e3)
		}
		if res.Err != "" {
			st.Failures++
			m.Counter("sweep_failures_total").Inc()
		}
		if res.CacheCorrupt {
			st.CacheCorrupt++
			m.Counter("sweep_cache_corrupt_total").Inc()
		}
		st.Wall = time.Since(start)
		var eta time.Duration
		if n := completed + 1; n < len(points) {
			eta = time.Duration(float64(st.Wall) / float64(n) * float64(len(points)-n))
		}
		m.Gauge("sweep_eta_seconds").Set(eta.Seconds())
		if r.Progress != nil {
			r.Progress(completed+1, len(points), st, eta)
		}
	}
	st.Wall = time.Since(start)
	m.Gauge("sweep_cache_hit_rate").Set(st.CacheHitRate())
	return results, st
}

// runPoint executes one point in a worker: cache lookup, isolated
// execution, cache store. A panic anywhere in the simulation stack becomes
// the point's Err.
func (r *Runner) runPoint(p Point) (res Result) {
	defer func() {
		if rec := recover(); rec != nil {
			res = Result{Point: p, Label: p.Label(), Err: fmt.Sprintf("panic: %v", rec)}
		}
	}()
	useCache := r.CacheDir != "" && r.Trace == nil
	var corrupt bool
	if useCache {
		cached, ok, bad := r.cacheLoad(p)
		if ok {
			return cached
		}
		corrupt = bad
	}
	exec := r.Exec
	if exec == nil {
		exec = Execute
	}
	start := time.Now()
	res = exec(p, r.ExecOptions)
	res.WallNS = time.Since(start).Nanoseconds()
	res.CacheCorrupt = res.CacheCorrupt || corrupt
	if useCache && res.Err == "" {
		r.cacheStore(res)
	}
	return res
}

func (r *Runner) cachePath(p Point) string {
	return filepath.Join(r.CacheDir, p.Key()+".json")
}

// cacheLoad returns the stored result for p, if any. An entry that exists
// but cannot be trusted — truncated by a crash, torn by a pre-atomic
// writer, bit-rotted — is evicted and reported as corrupt (third return),
// which the collector counts as sweep_cache_corrupt_total; the point then
// re-executes as a plain miss and rewrites the entry. The stored point's
// index is stale by construction (it belongs to the sweep that wrote it),
// so the current index is restored.
func (r *Runner) cacheLoad(p Point) (Result, bool, bool) {
	path := r.cachePath(p)
	b, err := os.ReadFile(path)
	if err != nil {
		return Result{}, false, false
	}
	var res Result
	if err := json.Unmarshal(b, &res); err != nil || res.Label == "" {
		os.Remove(path)
		return Result{}, false, true
	}
	if res.Err != "" {
		return Result{}, false, false
	}
	res.Point.Index = p.Index
	res.Cached = true
	return res, true, false
}

// cacheStore persists a successful result through the shared
// write-then-rename helper, so neither a concurrent reader nor a crash
// mid-write can ever produce a torn entry. Cache errors are deliberately
// silent: the cache is an accelerator, not a correctness layer.
func (r *Runner) cacheStore(res Result) {
	if err := os.MkdirAll(r.CacheDir, 0o755); err != nil {
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		return
	}
	ckpt.WriteFileAtomic(r.cachePath(res.Point), b, 0o644)
}
