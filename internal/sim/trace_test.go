package sim

import (
	"strings"
	"testing"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	e := New()
	var recs []TraceRecord
	e.SetTracer(TracerFunc(func(r TraceRecord) { recs = append(recs, r) }))
	e.Spawn("worker", func(p *Proc) {
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var kinds []TraceKind
	for _, r := range recs {
		if r.Proc != "worker" {
			t.Errorf("unexpected proc %q", r.Proc)
		}
		kinds = append(kinds, r.Kind)
	}
	want := []TraceKind{TraceSpawn, TraceResume, TracePark, TraceResume, TraceExit}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// Park record carries the blocking label.
	if recs[2].Label == "" || !strings.Contains(recs[2].Label, "sleep") {
		t.Errorf("park label = %q", recs[2].Label)
	}
}

func TestTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(traced bool) Time {
		e := New()
		if traced {
			e.SetTracer(TracerFunc(func(TraceRecord) {}))
		}
		q := NewQueue[int](e, "q")
		e.Spawn("a", func(p *Proc) {
			p.Sleep(5)
			q.Put(1)
			p.Sleep(7)
		})
		e.Spawn("b", func(p *Proc) { q.Get(p); p.Sleep(3) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("tracing changed end time: %v vs %v", a, b)
	}
}

func TestTraceKindStrings(t *testing.T) {
	if TraceSpawn.String() != "spawn" || TraceKind(99).String() != "trace(99)" {
		t.Error("TraceKind strings broken")
	}
}

func TestTraceRecordString(t *testing.T) {
	r := TraceRecord{T: 5 * Microsecond, Kind: TracePark, Proc: "cht0", Label: "queue q"}
	s := r.String()
	if !strings.Contains(s, "park") || !strings.Contains(s, "cht0") || !strings.Contains(s, "[queue q]") {
		t.Errorf("record string = %q", s)
	}
}
