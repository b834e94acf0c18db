package sim

import (
	"fmt"
	"io"
)

// TraceKind classifies trace records.
type TraceKind int

// Trace record kinds.
const (
	TraceSpawn TraceKind = iota
	TraceResume
	TracePark
	TraceExit
)

func (k TraceKind) String() string {
	switch k {
	case TraceSpawn:
		return "spawn"
	case TraceResume:
		return "resume"
	case TracePark:
		return "park"
	case TraceExit:
		return "exit"
	default:
		return fmt.Sprintf("trace(%d)", int(k))
	}
}

// TraceRecord is one scheduling event: a process was spawned, resumed,
// parked (with the blocking label), or exited.
type TraceRecord struct {
	T     Time
	Kind  TraceKind
	Proc  string
	Label string // blocking point for TracePark
}

func (r TraceRecord) String() string {
	if r.Label != "" {
		return fmt.Sprintf("%12v %-6v %s [%s]", r.T, r.Kind, r.Proc, r.Label)
	}
	return fmt.Sprintf("%12v %-6v %s", r.T, r.Kind, r.Proc)
}

// Tracer receives scheduling events. Install one with Engine.SetTracer.
type Tracer interface {
	Trace(TraceRecord)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(TraceRecord)

// Trace implements Tracer.
func (f TracerFunc) Trace(r TraceRecord) { f(r) }

// SetTracer installs (or, with nil, removes) a scheduling tracer. Tracing is
// purely observational: it does not perturb virtual time or ordering.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

func (e *Engine) trace(kind TraceKind, p *Proc, label string) {
	if e.tracer != nil {
		e.tracer.Trace(TraceRecord{T: e.now, Kind: kind, Proc: p.Name(), Label: label})
	}
}

// WriteTracer returns a Tracer that prints each record to w, one per line.
func WriteTracer(w io.Writer) Tracer {
	return TracerFunc(func(r TraceRecord) { fmt.Fprintln(w, r) })
}

// RingTracer keeps the last N records, for post-mortem inspection after a
// deadlock or time-limit error.
type RingTracer struct {
	records []TraceRecord
	next    int
	full    bool
}

// NewRingTracer creates a tracer holding up to n records.
func NewRingTracer(n int) *RingTracer {
	if n < 1 {
		n = 1
	}
	return &RingTracer{records: make([]TraceRecord, n)}
}

// Trace implements Tracer.
func (rt *RingTracer) Trace(r TraceRecord) {
	rt.records[rt.next] = r
	rt.next++
	if rt.next == len(rt.records) {
		rt.next = 0
		rt.full = true
	}
}

// Records returns the buffered records in chronological order.
func (rt *RingTracer) Records() []TraceRecord {
	if !rt.full {
		return append([]TraceRecord(nil), rt.records[:rt.next]...)
	}
	out := make([]TraceRecord, 0, len(rt.records))
	out = append(out, rt.records[rt.next:]...)
	out = append(out, rt.records[:rt.next]...)
	return out
}
