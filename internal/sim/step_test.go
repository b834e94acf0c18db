package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// stepServer is one server loop — take a job, wait out a maintenance window
// if one is open, serve it for a job-dependent time, pass it on — written
// twice: as a goroutine body and as a step function. The kernel contract is
// that the two are indistinguishable from outside.
type stepServer struct {
	owner int
	q     *Queue[int]
	open  *Event      // fires when the maintenance window closes
	done  func(x int) // runs after x's service time, in the server's context

	// Step-form state: what the body form keeps on its stack.
	cur     int
	holding bool
	serving bool
}

func (s *stepServer) svc(x int) Time { return Time(5 + x%7) }

func (s *stepServer) body(p *Proc) {
	for {
		x := s.q.Get(p)
		s.open.Wait(p)
		p.Sleep(s.svc(x))
		s.done(x)
	}
}

func (s *stepServer) step(p *Proc) {
	if s.serving {
		s.serving, s.holding = false, false
		s.done(s.cur)
	}
	if !s.holding {
		x, ok := s.q.Poll(p)
		if !ok {
			return
		}
		s.cur, s.holding = x, true
	}
	if !s.open.Poll(p) {
		return
	}
	s.serving = true
	p.Sleep(s.svc(s.cur))
}

// runStepServers drives four servers in a ring (each passes a served job to
// the next owner until it has made `hops` hops), fed by one client per owner,
// with a maintenance window that closes at t=300. It returns the scheduling
// trace (serial only: the tracer needs a serial engine), the sim sections
// read at horizons every 64 time units plus the final one, and the order
// jobs were served in.
func runStepServers(t *testing.T, shards int, stepForm bool) (trace []TraceRecord, sections [][]byte, served []string) {
	t.Helper()
	const (
		owners    = 4
		lookahead = Time(50)
		hops      = 3
	)
	e := New()
	e.ConfigureShards(shards, owners, func(o int) int { return o * shards / owners }, lookahead)
	if shards == 1 {
		e.SetTracer(TracerFunc(func(r TraceRecord) { trace = append(trace, r) }))
	}

	logs := make([][]string, owners) // per owner: shard workers never share one
	servers := make([]*stepServer, owners)
	for o := range servers {
		servers[o] = &stepServer{owner: o, q: NewQueue[int](e, fmt.Sprintf("jobs%d", o)), open: NewEvent(e, "maintenance")}
	}
	for _, s := range servers {
		s := s
		s.done = func(x int) {
			logs[s.owner] = append(logs[s.owner], fmt.Sprintf("%d@%v", x, e.NowOn(s.owner)))
			if x/1000 < hops {
				next := servers[(s.owner+1)%owners]
				e.AtFrom(s.owner, next.owner, e.NowOn(s.owner)+lookahead, func() { next.q.Put(x + 1000) })
			}
		}
		if stepForm {
			e.SpawnStepOn(s.owner, "server", s.owner, s.step)
		} else {
			e.SpawnDaemonOn(s.owner, fmt.Sprintf("server%d", s.owner), s.body)
		}
		e.SpawnOn(s.owner, fmt.Sprintf("client%d", s.owner), func(p *Proc) {
			for i := 0; i < 6; i++ {
				s.q.Put(s.owner*10 + i)
				p.Sleep(Time(3 + 40*(i%3)))
			}
		})
	}
	e.At(300, func() {
		for _, s := range servers {
			s.open.Fire()
		}
	})
	sections = append(stepHorizons(t, e, 64), e.CheckpointSection())
	e.Shutdown()
	for _, l := range logs {
		served = append(served, l...)
	}
	return trace, sections, served
}

func TestStepProcessIndistinguishableFromBody(t *testing.T) {
	wantTrace, wantSections, wantServed := runStepServers(t, 1, false)
	if len(wantServed) != 4*6*4 || len(wantSections) < 5 {
		t.Fatalf("workload too small to prove anything: %d jobs served, %d sections", len(wantServed), len(wantSections))
	}
	for _, c := range []struct {
		shards   int
		stepForm bool
	}{{1, true}, {2, false}, {2, true}} {
		trace, sections, served := runStepServers(t, c.shards, c.stepForm)
		if c.shards == 1 && !reflect.DeepEqual(trace, wantTrace) {
			t.Errorf("step form: trace differs from the body form's (%d vs %d records)", len(trace), len(wantTrace))
		}
		if !reflect.DeepEqual(served, wantServed) {
			t.Errorf("shards=%d step=%v: service order differs\n got %v\nwant %v", c.shards, c.stepForm, served, wantServed)
		}
		if len(sections) != len(wantSections) {
			t.Fatalf("shards=%d step=%v: %d sections, want %d", c.shards, c.stepForm, len(sections), len(wantSections))
		}
		for i := range sections {
			if !bytes.Equal(sections[i], wantSections[i]) {
				t.Errorf("shards=%d step=%v: checkpoint section %d differs from the serial body form's", c.shards, c.stepForm, i)
			}
		}
	}
}

func TestStepFunctionMisusePanics(t *testing.T) {
	for name, step := range map[string]func(p *Proc){
		"returns without waiting": func(p *Proc) {},
		"blocking call":           func(p *Proc) { NewQueue[int](p.Engine(), "q").Get(p) },
	} {
		e := New()
		e.SpawnStepOn(0, "bad", -1, step)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			_ = e.Run()
		}()
	}
}

// waitGoroutines waits for exiting goroutines to be reaped and reports the
// count that remains.
func waitGoroutines(atMost int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > atMost; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Processes that run to their exit in one resume share one recycled carrier:
// 65 536 of them must not cost 65 536 goroutines.
func TestRunToExitProcsShareOneCarrier(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	ran, peak := 0, 0
	for i := 0; i < 65536; i++ {
		e.Spawn("p", func(p *Proc) {
			ran++
			if ran%1024 == 0 {
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		})
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("spawning created %d goroutines", n-before)
	}
	mustRun(t, e)
	if ran != 65536 {
		t.Fatalf("%d bodies ran", ran)
	}
	if peak > before+2 {
		t.Errorf("peak goroutines %d during the run, %d before it", peak, before)
	}
	e.Shutdown()
	if got := waitGoroutines(before); got > before {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", before, got)
	}
}

// A panic in a process body comes out of Run on the caller's goroutine, and
// the engine can still be shut down cleanly afterwards.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		before := runtime.NumGoroutine()
		e := New()
		e.ConfigureShards(shards, 2, func(o int) int { return o * shards / 2 }, 10)
		unwound := 0
		for o := 0; o < 2; o++ {
			q := NewQueue[int](e, "never")
			e.SpawnOn(o, "waiter", func(p *Proc) {
				defer func() { unwound++ }() // runs in Shutdown, on the test's goroutine
				q.Get(p)
			})
		}
		e.SpawnOn(1, "faulty", func(p *Proc) {
			p.Sleep(5)
			panic("rank bug")
		})
		func() {
			defer func() {
				if r := recover(); r != "rank bug" {
					t.Errorf("shards=%d: Run panicked with %v, want the body's panic", shards, r)
				}
			}()
			err := e.Run()
			t.Errorf("shards=%d: Run returned %v instead of panicking", shards, err)
		}()
		e.Shutdown()
		if unwound != 2 {
			t.Errorf("shards=%d: %d parked bodies unwound by Shutdown, want 2", shards, unwound)
		}
		if got := waitGoroutines(before); got > before {
			t.Errorf("shards=%d: goroutines leaked: %d before, %d after shutdown", shards, before, got)
		}
	}
}
