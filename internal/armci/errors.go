package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// NoRouteError reports a forwarding decision that does not correspond to a
// directed edge of the virtual topology (a broken RouteOverride, or a
// topology violating its own next-hop contract). The CHT fails the request
// back to its origin instead of panicking or silently dropping it.
type NoRouteError struct {
	From, To int
}

func (e *NoRouteError) Error() string {
	return fmt.Sprintf("armci: no edge %d->%d in the virtual topology", e.From, e.To)
}

// NodeFailedError reports an operation aborted because a node crash-stopped:
// either the origin's own node died with the op in flight, or the target
// node is confirmed dead by the membership service. Handles carrying it
// complete normally — Handle.Err surfaces the failure — so survivors keep
// making progress.
type NodeFailedError struct {
	Node int
}

func (e *NodeFailedError) Error() string {
	return fmt.Sprintf("armci: node %d crashed", e.Node)
}

// OverloadError reports an operation rejected by overload admission control
// (Config.Overload) before any part of it entered the network: the origin's
// pending-op budget was exhausted, the op could not meet its deadline under
// the current pacing delay, or its priority class is being shed at the top
// rung of the degradation ladder. The handle completes normally with this
// error, and the origin's shed ledger (Stats.ShedOps and friends) accounts
// for every rejection — nothing is silently lost. RetryAfter is the pacer's
// current estimate of when the destination is worth trying again.
type OverloadError struct {
	Origin     int      // issuing rank
	Target     int      // target rank
	Reason     string   // "budget", "deadline" or "class"
	RetryAfter sim.Time // suggested virtual-time backoff before reissuing
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("armci: overload: %s shed rank %d -> rank %d (retry after %v)",
		e.Reason, e.Origin, e.Target, e.RetryAfter)
}

// TimeoutError reports a request chunk that exhausted MaxRetries without
// completing — the origin-side verdict that the target (or every route to
// it) stayed unreachable for the whole retry schedule.
type TimeoutError struct {
	Kind     string   // operation, e.g. "put"
	Origin   int      // issuing rank
	Target   int      // target rank
	Attempts int      // transmissions, including the original
	Elapsed  sim.Time // virtual time from first transmission to giving up
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("armci: %s rank %d -> rank %d timed out after %d attempts over %v",
		e.Kind, e.Origin, e.Target, e.Attempts, e.Elapsed)
}

// StallError is a watchdog trip (*sim.WatchdogError, which it unwraps to)
// annotated with the runtime's credit-starved edges: every egress that still
// had sends parked for a buffer credit when the run stopped, node-major.
type StallError struct {
	*sim.WatchdogError
	Edges []StalledEdge
}

// StalledEdge is one egress with parked sends at a stall.
type StalledEdge struct {
	From, To          int // the directed virtual-topology edge
	Credits, Capacity int // credits left of the edge's pool
	Parked            int // sends waiting for a credit
}

func (e StalledEdge) String() string {
	return fmt.Sprintf("edge %d->%d: %d parked, credits %d/%d", e.From, e.To, e.Parked, e.Credits, e.Capacity)
}

func (e *StallError) Error() string {
	s := e.WatchdogError.Error()
	for _, edge := range e.Edges {
		s += "; " + edge.String()
	}
	return s
}

func (e *StallError) Unwrap() error { return e.WatchdogError }
