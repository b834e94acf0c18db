// Package obs is the repository's unified observability layer: a metrics
// registry (counters, gauges, histograms keyed by name+labels) and a
// span/event tracer that emits Chrome-trace ("catapult") JSON viewable in
// chrome://tracing or Perfetto.
//
// Observability is off by default and strictly passive. Every entry point is
// safe on a nil receiver (a nil *Registry hands out nil instruments whose
// methods are no-ops), so instrumented code pays only a nil check when
// disabled and never perturbs virtual time or event ordering when enabled:
// the paper-figure results (Figs 5-9) are bit-identical with and without
// instrumentation.
//
// The full schema of metric names and spans emitted by the repository — every
// name, label set, unit and emitting module — is documented in
// docs/OBSERVABILITY.md; a test fails if the two drift apart.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"armcivt/internal/stats"
)

// Label is one key=value dimension of a metric. Metrics with the same name
// but different label sets are distinct series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// labelString renders labels canonically: sorted by key, "k=v" joined by ",".
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// Counter is a monotonically non-decreasing sum.
type Counter struct {
	v float64
}

// Add increases the counter by d (negative deltas are ignored).
func (c *Counter) Add(d float64) {
	if c == nil || d < 0 {
		return
	}
	c.v += d
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated sum (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value; it also remembers the maximum ever Set.
type Gauge struct {
	v, max float64
	set    bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// SetMax records v only if it exceeds the current value (high-water mark).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	if !g.set || v > g.v {
		g.Set(v)
	}
}

// Value returns the last value Set (0 on nil or never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value ever Set.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram accumulates observations into a fixed bucket layout. Bucket i
// counts observations <= Bounds[i]; one implicit overflow bucket counts the
// rest. Percentiles are estimated by linear interpolation within the
// containing bucket, so the layout determines resolution.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is overflow
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// Standard bucket layouts. All time-valued histograms in the repository use
// microseconds of virtual time; size-valued ones use counts or bytes.
var (
	// TimeBuckets covers 0.1 us .. ~100 ms in roughly 2x steps, the span
	// between a single CHT poll and a fully collapsed hot-spot operation.
	TimeBuckets = expBuckets(0.1, 2, 21)
	// CountBuckets covers small integer occupancies (queue depths, buffer
	// pools) from 1 to 4096 in 2x steps.
	CountBuckets = expBuckets(1, 2, 13)
)

// expBuckets returns n bounds: start, start*factor, start*factor^2, ...
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts by
// linear interpolation inside the containing bucket. The exact min/max are
// used to clamp the estimate to the observed range.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := h.bucketRange(i)
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// bucketRange returns the value range covered by bucket i.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, h.bounds[0]
	case i < len(h.bounds):
		return h.bounds[i-1], h.bounds[i]
	default:
		return h.bounds[len(h.bounds)-1], h.max
	}
}

// metricKind tags registry entries for snapshot rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type entry struct {
	name   string
	labels string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. The zero value is NOT usable — call
// NewRegistry — but a nil *Registry is: every accessor returns a nil
// instrument whose methods are no-ops, which is how instrumented code runs
// with observability disabled.
//
// The registry is not goroutine-safe; the simulation kernel guarantees a
// single runner at any moment, which is the only context the repository
// updates metrics from.
type Registry struct {
	entries map[string]*entry
	order   []string // insertion order of keys, for stable enumeration
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

func (r *Registry) lookup(name string, kind metricKind, labels []Label) *entry {
	ls := labelString(labels)
	key := name + "{" + ls + "}"
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", key, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, labels: ls, kind: kind}
	r.entries[key] = e
	r.order = append(r.order, key)
	return e
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindCounter, labels)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindGauge, labels)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns (registering on first use) the named histogram with the
// given bucket bounds; bounds are fixed at first registration and nil
// defaults to TimeBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindHistogram, labels)
	if e.h == nil {
		if bounds == nil {
			bounds = TimeBuckets
		}
		e.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return e.h
}

// Names returns the distinct metric names registered, sorted. This is what
// the documentation-drift test enumerates against docs/OBSERVABILITY.md.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, key := range r.order {
		e := r.entries[key]
		if !seen[e.name] {
			seen[e.name] = true
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered metric series (name+labels pairs).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// Snapshot renders every registered metric as one row of a stats.Table,
// sorted by name then label string, so snapshots are deterministic and
// directly pastable into the documentation. Columns: metric, labels, type,
// count, value, mean, p50, p99, max. Counters fill value only; gauges fill
// value and max; histograms fill count/mean/percentiles/max.
func (r *Registry) Snapshot(title string) *stats.Table {
	t := &stats.Table{
		Title:  title,
		Header: []string{"metric", "labels", "type", "count", "value", "mean", "p50", "p99", "max"},
	}
	if r == nil {
		return t
	}
	keys := append([]string(nil), r.order...)
	sort.Slice(keys, func(i, j int) bool {
		a, b := r.entries[keys[i]], r.entries[keys[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels < b.labels
	})
	const blank = "-"
	for _, key := range keys {
		e := r.entries[key]
		labels := e.labels
		if labels == "" {
			labels = blank
		}
		switch e.kind {
		case kindCounter:
			t.AddRow(e.name, labels, e.kind.String(), blank, e.c.Value(), blank, blank, blank, blank)
		case kindGauge:
			t.AddRow(e.name, labels, e.kind.String(), blank, e.g.Value(), blank, blank, blank, e.g.Max())
		case kindHistogram:
			h := e.h
			t.AddRow(e.name, labels, e.kind.String(), float64(h.Count()), blank,
				h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max())
		}
	}
	return t
}
