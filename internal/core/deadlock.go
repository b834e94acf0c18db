package core

import "fmt"

// This file verifies the paper's Section IV deadlock-freedom claim
// computationally. A request holds the buffer at its current node while it
// waits for a buffer at the next hop, so the system can deadlock iff the
// "buffer wait-for" graph — whose vertices are directed topology edges and
// whose arcs connect consecutive edges of some route — contains a cycle.
// LDF's monotone dimension order makes that graph a DAG; mixing dimension
// orders (MixedOrderNextHop below) creates cycles, reproducing the failure
// LDF exists to prevent.

// NextHopFunc is a routing rule: it returns the next node on the path from
// src to dst (dst itself for the last hop).
type NextHopFunc func(src, dst int) int

// CycleError reports a cycle in the buffer-dependency graph as a sequence of
// directed edges e0 -> e1 -> ... -> e0.
type CycleError struct {
	Edges [][2]int
}

func (c *CycleError) Error() string {
	s := "core: buffer-dependency cycle:"
	for _, e := range c.Edges {
		s += fmt.Sprintf(" (%d->%d)", e[0], e[1])
	}
	return s
}

// CheckDeadlockFree verifies that the topology's own LDF routing induces an
// acyclic buffer-dependency graph. It returns a *CycleError describing a
// cycle if one exists.
func CheckDeadlockFree(t Topology) error {
	return CheckRouterDeadlockFree(t.Nodes(), t.NextHop, t.Dims()+2)
}

// CheckRouterDeadlockFree verifies an arbitrary routing rule over n nodes.
// A rule that returns -1 at some step ends that pair's route where it
// stands: the pair has no route on from there (a dead endpoint, every
// forwarder avoided, or a send parked on a dead edge), so the dependencies
// its route formed up to that node stay and it adds none beyond. maxPath
// bounds route length in edges, so a non-terminating rule is reported
// instead of looping forever. The cycle reported is deterministic: the
// first the search meets, taking routes by source, then destination.
func CheckRouterDeadlockFree(n int, next NextHopFunc, maxPath int) error {
	// Edges are numbered in first-use order; edgeID[u*n+v] is edge u->v's
	// number plus one (0: unused). succ[e] lists the edges some route
	// enters immediately after edge e.
	edgeID := make([]int32, n*n)
	var edges [][2]int
	var succ [][]int32
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			prev := int32(-1)
			for cur, hops := src, 0; cur != dst; hops++ {
				if hops == maxPath {
					return fmt.Errorf("core: route %d->%d did not terminate within %d hops", src, dst, maxPath)
				}
				nxt := next(cur, dst)
				if nxt < 0 {
					break // no route on from here
				}
				switch {
				case nxt == cur:
					return fmt.Errorf("core: route %d->%d stalled at %d", src, dst, cur)
				case nxt >= n:
					return fmt.Errorf("core: route %d->%d left the %d nodes at %d", src, dst, n, nxt)
				}
				k := cur*n + nxt
				if edgeID[k] == 0 {
					edges = append(edges, [2]int{cur, nxt})
					succ = append(succ, nil)
					edgeID[k] = int32(len(edges))
				}
				e := edgeID[k] - 1
				if prev >= 0 {
					succ[prev] = append(succ[prev], e)
				}
				prev, cur = e, nxt
			}
		}
	}
	// Iterative DFS cycle detection (colors: 0 white, 1 grey, 2 black). The
	// stack is the grey path; pos[e] is the next successor of e to visit.
	color := make([]int8, len(edges))
	pos := make([]int32, len(edges))
	var stack []int32
	for root := range edges {
		if color[root] != 0 {
			continue
		}
		color[root] = 1
		stack = append(stack[:0], int32(root))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if int(pos[u]) == len(succ[u]) {
				color[u] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			v := succ[u][pos[u]]
			pos[u]++
			switch color[v] {
			case 0:
				color[v] = 1
				stack = append(stack, v)
			case 1:
				// v is on the grey path: from v up to u it closes on v.
				i := len(stack) - 1
				for stack[i] != v {
					i--
				}
				var cyc [][2]int
				for _, e := range stack[i:] {
					cyc = append(cyc, edges[e])
				}
				return &CycleError{Edges: append(cyc, edges[v])}
			}
		}
	}
	return nil
}

// MixedOrderNextHop returns a deliberately broken routing rule for a
// topology: requests to odd-numbered destinations correct the highest
// differing dimension first (YX order) while the rest use LDF (XY order).
// Mixing the two orders on a mesh creates cyclic buffer dependencies — e.g.
// on a 3x3 MFCG the edges (4->3), (3->0), (0->1), (1->4) form a cycle —
// which CheckRouterDeadlockFree detects and which deadlocks the armci
// runtime end-to-end in tests. This is the failure mode LDF exists to
// prevent.
func MixedOrderNextHop(t Topology) NextHopFunc {
	return func(src, dst int) int {
		if src == dst {
			return src
		}
		if dst%2 == 0 {
			return t.NextHop(src, dst)
		}
		s := t.Coord(src)
		d := t.Coord(dst)
		// Highest differing dimension first, accepting only populated hops.
		for i := len(s) - 1; i >= 0; i-- {
			if s[i] == d[i] {
				continue
			}
			c := append([]int(nil), s...)
			c[i] = d[i]
			if id := t.NodeAt(c); id >= 0 {
				return id
			}
		}
		return t.NextHop(src, dst)
	}
}
