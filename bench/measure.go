package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// summary is how every timing is reported: median, extremes, quartiles and
// the sample count. n is a handful of reps, too small for a tail percentile,
// so none is given.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		N:      len(s),
	}
}

// single wraps a value measured once per run (peak RSS, a traced-rep count).
func single(v float64) summary { return summarize([]float64{v}) }

// quantile is Python's statistics.quantiles "exclusive" rule on sorted
// input, the rule the contract's quartile spread is computed with.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(math.Floor(pos))
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// sample is the host cost of one call: wall-clock, user+sys CPU, and heap
// allocations. The collector runs before the clock starts so a rep pays for
// its own garbage only, and ReadMemStats (stop-the-world) stays outside.
type sample struct {
	wall, cpu, mallocs float64
}

func measure(fn func()) sample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds(rusage())
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds(rusage()) - cpu0
	runtime.ReadMemStats(&after)
	return sample{wall: wall, cpu: cpu, mallocs: float64(after.Mallocs - before.Mallocs)}
}

// span is one traced call into a layer: which call, when, and under which
// enclosing span. Spans of one rep share Rep; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Rep    int     `json:"rep"`
	Name   string  `json:"name"`
	Call   string  `json:"call"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spans records calls in memory; they are written out when the run ends. A
// nil recorder is the untraced configuration: do just calls fn.
type spans struct {
	t0   time.Time
	rep  int
	list []span
	open []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// do runs fn inside a span. call is the layer entry point (figures,
// core_new, armci_new, ...), the key per-layer span metrics aggregate by;
// name is the full span name written to the span file.
func (r *spans) do(call, name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := len(r.list) + 1
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.list = append(r.list, span{ID: id, Parent: parent, Rep: r.rep, Name: name, Call: call, Start: time.Since(r.t0).Seconds()})
	r.open = append(r.open, id)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.list[id-1].End = time.Since(r.t0).Seconds()
}

// byCall sums span durations per call under each root ("rep" or "setup"),
// plus the root's self time: its duration minus the part its children cover.
func (r *spans) byCall() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	root := map[int]string{}
	for _, s := range r.list {
		if s.Parent == 0 {
			root[s.ID] = s.Call
			out[s.Call+".self"] += s.dur()
			continue
		}
		top := root[s.Parent]
		if top == "" {
			continue // deeper than one level: already covered by its parent
		}
		out[top+"."+s.Call] += s.dur()
		out[top+".self"] -= s.dur()
	}
	return out
}
