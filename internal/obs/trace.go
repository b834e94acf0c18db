package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"armcivt/internal/sim"
)

// TraceEvent is one Chrome-trace ("catapult") event. The JSON field names
// match the trace-event format that chrome://tracing and Perfetto load:
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//
// Timestamps and durations are microseconds of *virtual* time (sim.Time), so
// a loaded trace lines up exactly with the simulated experiment.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// DefaultTraceLimit bounds how many events a Tracer buffers before dropping;
// long contention storms emit one span per request, and an uncapped trace of
// a paper-scale run would not be loadable anyway. Dropped events are counted
// and reported in the trace metadata.
const DefaultTraceLimit = 1 << 20

// Tracer collects trace events in memory and serializes them as Chrome-trace
// JSON (array-of-events form). A nil *Tracer is a valid no-op, which is how
// instrumented code runs with tracing disabled. Like the Registry it is not
// goroutine-safe; the simulation kernel's single-runner discipline is assumed.
type Tracer struct {
	events []TraceEvent
	// meta holds the metadata events in registration order; an entry with
	// n > 0 stands for n thread names registered as one range (see
	// ThreadNames), expanded only when the trace is written.
	meta    []metaEntry
	dropped uint64
	// Limit caps buffered events (metadata excluded); 0 means
	// DefaultTraceLimit.
	Limit int
}

// metaEntry is one metadata event, or with n > 0 the thread names prefix+i
// of tids tid0+i for i in [0, n) under ev's pid.
type metaEntry struct {
	ev     TraceEvent
	n      int
	prefix string
}

// NewTracer creates an empty tracer with the default event limit.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) add(ev TraceEvent) {
	limit := t.Limit
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	if len(t.events) >= limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Complete records a completed span ("X" phase) on (pid, tid) from start
// lasting dur of virtual time. args may be nil.
func (t *Tracer) Complete(name, cat string, pid, tid int, start, dur sim.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "X",
		TS: start.Micros(), Dur: dur.Micros(), PID: pid, TID: tid, Args: args})
}

// Instant records a zero-duration marker ("i" phase, thread scope).
func (t *Tracer) Instant(name, cat string, pid, tid int, at sim.Time, args map[string]any) {
	if t == nil {
		return
	}
	ev := TraceEvent{Name: name, Cat: cat, Ph: "i",
		TS: at.Micros(), PID: pid, TID: tid, Args: args}
	if ev.Args == nil {
		ev.Args = map[string]any{}
	}
	ev.Args["s"] = "t"
	t.add(ev)
}

// CounterSample records a "C" (counter) event: Perfetto plots these as a
// stacked time series per (pid, name).
func (t *Tracer) CounterSample(name string, pid int, at sim.Time, values map[string]any) {
	if t == nil {
		return
	}
	t.add(TraceEvent{Name: name, Ph: "C", TS: at.Micros(), PID: pid, Args: values})
}

// ProcessName attaches a human-readable name to a trace pid (one experiment
// run per pid by convention, see docs/OBSERVABILITY.md).
func (t *Tracer) ProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.meta = append(t.meta, metaEntry{ev: TraceEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}}})
}

// ThreadName attaches a human-readable name to (pid, tid); by convention tids
// are simulated-process ids (CHTs, ranks) within a run.
func (t *Tracer) ThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.meta = append(t.meta, metaEntry{ev: threadName(pid, tid, name)})
}

// ThreadNames is ThreadName(pid, tid0+i, prefix followed by i in decimal)
// for every i in [0, n), registered as one entry that formats no name until
// the trace is written: a 64k-node job names its CHTs in one call.
func (t *Tracer) ThreadNames(pid, tid0, n int, prefix string) {
	if t == nil || n <= 0 {
		return
	}
	t.meta = append(t.meta, metaEntry{ev: TraceEvent{PID: pid, TID: tid0}, n: n, prefix: prefix})
}

func threadName(pid, tid int, name string) TraceEvent {
	return TraceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// Len returns the number of buffered non-metadata events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns how many events were discarded over the limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered non-metadata events (shared slice; do not
// mutate). Tests use it to assert on emitted spans.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	return t.events
}

// WriteJSON serializes the trace in the array-of-events form, metadata
// first, one event per line. The output is a valid JSON array loadable in
// chrome://tracing and Perfetto. A nil tracer writes an empty array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	writeEv := func(ev TraceEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	if t != nil {
		if t.dropped > 0 {
			limit := t.Limit
			if limit <= 0 {
				limit = DefaultTraceLimit
			}
			if err := writeEv(TraceEvent{Name: "trace_dropped_events", Ph: "M",
				Args: map[string]any{"dropped": t.dropped, "limit": limit}}); err != nil {
				return err
			}
		}
		for _, m := range t.meta {
			if m.n == 0 {
				if err := writeEv(m.ev); err != nil {
					return err
				}
				continue
			}
			for i := range m.n {
				if err := writeEv(threadName(m.ev.PID, m.ev.TID+i, m.prefix+strconv.Itoa(i))); err != nil {
					return err
				}
			}
		}
		for _, ev := range t.events {
			if err := writeEv(ev); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// SimTracer adapts a Tracer to the sim.Tracer scheduling hook: every
// resume→park/exit interval of a simulated process becomes one "X" span named
// after the process (category "sched"), and the park label is recorded as the
// span's "blocked_on" argument — i.e. what the process went on to wait for.
// Install with eng.SetTracer(obs.NewSimTracer(tr, pid)).
type SimTracer struct {
	tr  *Tracer
	pid int
	// running[proc id] is the resume instant of a currently running proc.
	running map[int]sim.Time
	named   map[int]bool
	ids     map[string]int
}

// NewSimTracer creates a scheduling tracer emitting under the given trace
// pid. tr may be nil, making every method a no-op.
func NewSimTracer(tr *Tracer, pid int) *SimTracer {
	return &SimTracer{tr: tr, pid: pid, running: map[int]sim.Time{}, named: map[int]bool{}, ids: map[string]int{}}
}

// Trace implements sim.Tracer.
func (st *SimTracer) Trace(r sim.TraceRecord) {
	if st == nil || st.tr == nil {
		return
	}
	tid, ok := st.ids[r.Proc]
	if !ok {
		tid = len(st.ids)
		st.ids[r.Proc] = tid
	}
	if !st.named[tid] {
		st.named[tid] = true
		st.tr.ThreadName(st.pid, tid, r.Proc)
	}
	switch r.Kind {
	case sim.TraceResume:
		st.running[tid] = r.T
	case sim.TracePark, sim.TraceExit:
		start, ok := st.running[tid]
		if !ok {
			return
		}
		delete(st.running, tid)
		var args map[string]any
		if r.Label != "" {
			args = map[string]any{"blocked_on": r.Label}
		}
		name := "run"
		if r.Kind == sim.TraceExit {
			name = "run (exit)"
		}
		st.tr.Complete(name, "sched", st.pid, tid, start, r.T-start, args)
	}
}

// String identifies the adapter in engine diagnostics.
func (st *SimTracer) String() string { return fmt.Sprintf("obs.SimTracer(pid=%d)", st.pid) }
