package sim

import "fmt"

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
		e.traceName(kind, p.Name(), label)
	}
}

// traceName records a scheduling event of the process named name, for
// callers that hold no record of it; a tracer must be installed.
func (e *Engine) traceName(kind TraceKind, name, label string) {
	e.tracer.Trace(TraceRecord{T: e.now, Kind: kind, Proc: name, Label: label})
}
