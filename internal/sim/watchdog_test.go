package sim

import (
	"errors"
	"strings"
	"testing"
)

// churn schedules a self-rescheduling no-op event every period, count times —
// the kind of bookkeeping traffic (retry timers, link flaps) that keeps an
// event queue non-empty without resuming any process. count < 0 churns
// forever.
func churn(e *Engine, period Time, count int) {
	var tick func()
	n := 0
	tick = func() {
		n++
		if count >= 0 && n >= count {
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
}

func TestWatchdogTripsOnQuiescentChurn(t *testing.T) {
	e := New()
	never := NewEvent(e, "never")
	e.Spawn("stuck", func(p *Proc) { never.Wait(p) })
	churn(e, Millisecond, -1)
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.Start()

	err := e.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run = %v, want *WatchdogError", err)
	}
	if w.Stalls() != 1 {
		t.Errorf("Stalls = %d, want 1", w.Stalls())
	}
	rep := we.Report
	if len(rep.Blocked) != 1 || !strings.Contains(rep.Blocked[0], "never") {
		t.Errorf("report blocked = %v, want the stuck process on event never", rep.Blocked)
	}
	if rep.Pending == 0 {
		t.Errorf("report claims empty queue; churn should still be pending")
	}
	if !strings.Contains(rep.String(), "stuck: event never") {
		t.Errorf("report dump missing blocked process:\n%s", rep.String())
	}
	e.Shutdown()
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	e := New()
	for i := 0; i < 4; i++ {
		e.Spawn("worker", func(p *Proc) {
			for j := 0; j < 100; j++ {
				p.Sleep(Millisecond)
			}
		})
	}
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.Start()
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d on a healthy run", w.Stalls())
	}
}

func TestWatchdogIgnoresLongSleeps(t *testing.T) {
	// A process waiting on one far-future event is not a livelock: the
	// intervals in between fire nothing but the watchdog's own checks.
	e := New()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.Start()
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d, long sleep misdetected as stall", w.Stalls())
	}
}

func TestWatchdogDoesNotMaskDeadlock(t *testing.T) {
	// With no churn at all, a blocked process is the engine's classic
	// deadlock; the watchdog must stop rescheduling and let the queue drain
	// so Run returns the usual *DeadlockError.
	e := New()
	never := NewEvent(e, "never")
	e.Spawn("stuck", func(p *Proc) { never.Wait(p) })
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.Start()
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	e.Shutdown()
}
