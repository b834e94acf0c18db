package sim

import (
	"fmt"
	"strings"
)

// Watchdog detects a wedged simulation: the event queue stays non-empty —
// fault-retry timers, link flaps or regeneration checks keep firing — but no
// simulated process ever resumes. The engine's built-in deadlock detector
// only triggers when the queue drains completely, so a livelock sustained by
// periodic bookkeeping events would otherwise run (and burn wall-clock)
// forever. The fault-injection layer (internal/faults) arms one per faulted
// run.
//
// Detection: the watchdog checks every Interval of virtual time. An interval
// in which events fired but no process resumed is quiescent churn; Patience
// consecutive churn intervals trip the watchdog. Intervals in which nothing
// but the watchdog's own check fired are a legitimate wait on a far-future
// event (a long Sleep, a pending fault repair) and reset the churn streak —
// they cannot wedge the run, because the queue drains to the engine's own
// deadlock detector if the awaited event never helps.
type Watchdog struct {
	eng      *Engine
	interval Time
	patience int

	lastResumes  uint64
	lastExecuted uint64
	quiet        int
	stalls       int
	started      bool

	// Goodput-collapse detection (SetGoodput). Unlike quiescent churn, a
	// collapse has processes resuming busily — the run looks alive — while
	// useful completions have stopped arriving.
	goodput       func() (completed, shed uint64)
	goodputFloor  uint64
	lastCompleted uint64
	lastShed      uint64
	slump         int
}

// DefaultWatchdogInterval and DefaultWatchdogPatience suit the repository's
// contention workloads: a healthy run resumes thousands of processes per
// millisecond, so 4 consecutive 5 ms windows of churn without one resume is
// decisively wedged, while transient fault recovery (retry backoff up to
// ~10 ms between events) does not accumulate a consecutive streak.
const (
	DefaultWatchdogInterval = 5 * Millisecond
	DefaultWatchdogPatience = 4
)

// NewWatchdog creates a watchdog on e checking every interval, tripping after
// patience consecutive no-progress intervals. Non-positive arguments select
// the defaults. Call Start to arm it.
func NewWatchdog(e *Engine, interval Time, patience int) *Watchdog {
	if interval <= 0 {
		interval = DefaultWatchdogInterval
	}
	if patience <= 0 {
		patience = DefaultWatchdogPatience
	}
	return &Watchdog{eng: e, interval: interval, patience: patience}
}

// Start schedules the first check. Idempotent.
func (w *Watchdog) Start() {
	if w.started {
		return
	}
	w.started = true
	w.lastResumes = w.eng.resumes
	w.lastExecuted = w.eng.executed
	if w.goodput != nil {
		w.lastCompleted, w.lastShed = w.goodput()
	}
	w.eng.After(w.interval, w.check)
}

// SetGoodput arms the goodput-collapse detector: sample (called from the
// watchdog's serial check event) returns monotonically non-decreasing
// counts of completed operations and deliberately shed operations. A check
// window in which the run is still churning events but fewer than floor
// operations completed — and none were shed — counts toward a collapse
// streak; Patience consecutive such windows trip the watchdog with
// Collapse=true. Shedding resets the streak: a protection layer actively
// draining backlog is degrading gracefully, not collapsing, so the detector
// must not fire while load shedding is doing its job. Call before Start.
func (w *Watchdog) SetGoodput(sample func() (completed, shed uint64), floor uint64) {
	w.goodput = sample
	w.goodputFloor = floor
}

// Stalls returns how many times the watchdog tripped (0 or 1: a trip halts
// the run).
func (w *Watchdog) Stalls() int { return w.stalls }

func (w *Watchdog) check() {
	e := w.eng
	if e.liveNonDaemons() == 0 {
		return // workload finished; stop rescheduling so the queue can drain
	}
	if e.PendingEvents() == 0 {
		// Nothing left but this check: a true deadlock. Let the queue drain
		// so the engine's own detector reports it with its usual error.
		return
	}
	resumed := e.resumes != w.lastResumes
	churned := e.executed-w.lastExecuted > 1 // >1: more than this check itself
	w.lastResumes = e.resumes
	w.lastExecuted = e.executed
	switch {
	case resumed:
		w.quiet = 0
	case churned:
		w.quiet++
	default:
		w.quiet = 0 // pure wait on a future event
	}
	var rep *StallReport
	if w.quiet >= w.patience {
		rep = &StallReport{Checks: w.quiet}
	} else if w.goodput != nil {
		c, s := w.goodput()
		dC, dS := c-w.lastCompleted, s-w.lastShed
		w.lastCompleted, w.lastShed = c, s
		switch {
		case dS > 0, dC >= w.goodputFloor:
			w.slump = 0
		case resumed || churned:
			w.slump++
		default:
			w.slump = 0 // pure wait on a future event; not a collapse
		}
		if w.slump >= w.patience {
			rep = &StallReport{Checks: w.slump, Collapse: true, Completed: dC, Floor: w.goodputFloor}
		}
	}
	if rep == nil {
		e.After(w.interval, w.check)
		return
	}
	w.stalls++
	rep.At, rep.Window, rep.Interval = e.now, Time(rep.Checks)*w.interval, w.interval
	rep.Pending, rep.Blocked, rep.Daemons = e.PendingEvents(), e.BlockedProcs(), e.BlockedDaemons()
	e.Halt(&WatchdogError{Report: rep})
}

// StallReport describes a watchdog trip: what was blocked and how long the
// engine churned events without any process resuming.
type StallReport struct {
	At       Time     // virtual time of the trip
	Window   Time     // how long churn persisted without a resume
	Pending  int      // events still queued
	Blocked  []string // "name: blocked-on" for stuck non-daemon processes
	Daemons  []string // same for daemon processes (CHT server loops)
	Checks   int      // consecutive quiescent checks observed
	Interval Time     // check interval in effect

	// Goodput-collapse trips (SetGoodput) only:
	Collapse  bool   // true when the trip is a goodput collapse, not quiescent churn
	Completed uint64 // operations completed in the final check window
	Floor     uint64 // configured per-window completion floor
}

// String renders the full blocked-process dump.
func (r *StallReport) String() string {
	var b strings.Builder
	if r.Collapse {
		fmt.Fprintf(&b, "watchdog goodput collapse at t=%v: %d completion(s) in the last window (floor %d), none shed, for %v\n",
			r.At, r.Completed, r.Floor, r.Window)
	} else {
		fmt.Fprintf(&b, "watchdog stall at t=%v: %d event(s) pending, no process resumed for %v\n",
			r.At, r.Pending, r.Window)
	}
	fmt.Fprintf(&b, "  blocked processes (%d):\n", len(r.Blocked))
	for _, s := range r.Blocked {
		fmt.Fprintf(&b, "    %s\n", s)
	}
	if len(r.Daemons) > 0 {
		fmt.Fprintf(&b, "  blocked daemons (%d):\n", len(r.Daemons))
		for _, s := range r.Daemons {
			fmt.Fprintf(&b, "    %s\n", s)
		}
	}
	return b.String()
}

// WatchdogError is returned from Run when the watchdog aborts a wedged
// simulation.
type WatchdogError struct {
	Report *StallReport
}

func (e *WatchdogError) Error() string {
	if e.Report.Collapse {
		return fmt.Sprintf("sim: watchdog: goodput collapse at t=%v (%d completion(s) in last window, floor %d, %d pending)",
			e.Report.At, e.Report.Completed, e.Report.Floor, e.Report.Pending)
	}
	return fmt.Sprintf("sim: watchdog: quiescent event queue at t=%v (%d pending, %d blocked): %s",
		e.Report.At, e.Report.Pending, len(e.Report.Blocked), strings.Join(e.Report.Blocked, "; "))
}
