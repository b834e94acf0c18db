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

// goodputRun spawns one busy worker that resumes every millisecond for total
// iterations, calling step(j) each time, and returns the armed engine and
// watchdog. The worker keeps the run visibly alive — resuming, not churning —
// so any trip must come from the goodput detector, not quiescent churn.
func goodputRun(total int, step func(j int), sample func() (uint64, uint64), floor uint64) (*Engine, *Watchdog) {
	e := New()
	e.Spawn("worker", func(p *Proc) {
		for j := 0; j < total; j++ {
			p.Sleep(Millisecond)
			step(j)
		}
	})
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.SetGoodput(sample, floor)
	w.Start()
	return e, w
}

func TestWatchdogTripsOnGoodputCollapse(t *testing.T) {
	// Completions flow for 20 ms, then stop while the worker keeps resuming:
	// the run looks alive but produces nothing — the definition of collapse.
	var completed uint64
	e, _ := goodputRun(100,
		func(j int) {
			if j < 20 {
				completed++
			}
		},
		func() (uint64, uint64) { return completed, 0 }, 1)
	err := e.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run = %v, want *WatchdogError", err)
	}
	if !we.Report.Collapse {
		t.Fatalf("trip is not flagged as a collapse: %v", we)
	}
	if we.Report.Floor != 1 || we.Report.Completed != 0 {
		t.Errorf("report completed=%d floor=%d, want 0 and 1", we.Report.Completed, we.Report.Floor)
	}
	if !strings.Contains(we.Report.String(), "goodput collapse") {
		t.Errorf("report dump missing collapse header:\n%s", we.Report.String())
	}
	e.Shutdown()
}

func TestWatchdogQuietWhileShedding(t *testing.T) {
	// The regression this guards: a protection layer shedding load completes
	// nothing for long stretches while it drains backlog. Shed progress must
	// reset the collapse streak — degrading gracefully is not collapsing.
	var completed, shed uint64
	e, w := goodputRun(100,
		func(j int) {
			if j < 20 {
				completed++
			} else {
				shed++
			}
		},
		func() (uint64, uint64) { return completed, shed }, 1)
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil: shedding misread as collapse", err)
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d while load shedding was draining backlog", w.Stalls())
	}
}

func TestWatchdogCollapseAfterSheddingEnds(t *testing.T) {
	// Shedding holds the detector off, but only while it lasts: once sheds
	// stop and completions stay under the floor, the trip must still come.
	var completed, shed uint64
	e, _ := goodputRun(100,
		func(j int) {
			switch {
			case j < 20:
				completed++
			case j < 50:
				shed++
			}
		},
		func() (uint64, uint64) { return completed, shed }, 1)
	err := e.Run()
	var we *WatchdogError
	if !errors.As(err, &we) || !we.Report.Collapse {
		t.Fatalf("Run = %v, want a collapse trip after shedding stopped", err)
	}
	e.Shutdown()
}

func TestWatchdogGoodputQuietOnHealthyRun(t *testing.T) {
	var completed uint64
	e, w := goodputRun(100,
		func(int) { completed++ },
		func() (uint64, uint64) { return completed, 0 }, 1)
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d on a healthy run", w.Stalls())
	}
}

func TestWatchdogGoodputIgnoresPureWaits(t *testing.T) {
	// A long sleep fires nothing but the watchdog's own checks: zero
	// completions in those windows are a legitimate wait, not a collapse.
	e := New()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	w := NewWatchdog(e, 5*Millisecond, 4)
	w.SetGoodput(func() (uint64, uint64) { return 0, 0 }, 5)
	w.Start()
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d, long sleep misdetected as collapse", w.Stalls())
	}
}
