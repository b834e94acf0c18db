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
	w.eng.After(w.interval, w.check)
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
	if w.quiet < w.patience {
		e.After(w.interval, w.check)
		return
	}
	w.stalls++
	rep := &StallReport{Checks: w.quiet, At: e.now, Window: Time(w.quiet) * w.interval, Interval: w.interval}
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
}

// String renders the full blocked-process dump.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog stall at t=%v: %d event(s) pending, no process resumed for %v\n",
		r.At, r.Pending, r.Window)
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
	return fmt.Sprintf("sim: watchdog: quiescent event queue at t=%v (%d pending, %d blocked): %s",
		e.Report.At, e.Report.Pending, len(e.Report.Blocked), strings.Join(e.Report.Blocked, "; "))
}
