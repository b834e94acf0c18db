package core

import (
	"errors"
	"fmt"
	"testing"
)

// healedCase is one topology of the healed-route certificate with its
// pinned counts of avoided sets whose routes close a buffer-dependency
// cycle. The counts are ceilings that may only fall: a change that raises
// one has made healing less safe; a change that lowers one lowers the pin.
type healedCase struct {
	topo Topology
	// one and two count dead sets of that size under which every survivor
	// routes with ReplacementHop around the whole set.
	one, two int
	// trans counts transition views (dead node, line): only the members of
	// one of the dead node's lines avoid it, every other survivor still
	// routes by NextHop.
	trans int
}

func healedCases(t *testing.T) []healedCase {
	t.Helper()
	dfly := func(g, a, h int) Topology {
		topo, err := NewDragonfly(g, a, h)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	return []healedCase{
		{topo: MustNew(FCG, 16)},
		{topo: MustNew(MFCG, 16)},
		{topo: MustNew(MFCG, 27), two: 36},
		{topo: MustNew(MFCG, 32), two: 20},
		{topo: MustNew(CFCG, 16), one: 2, two: 37, trans: 2},
		{topo: MustNew(CFCG, 27), two: 108},
		{topo: MustNew(CFCG, 32), two: 176},
		{topo: MustNew(Hypercube, 16), two: 48},
		{topo: MustNew(Hypercube, 32), two: 304},
		{topo: MustNew(HyperX, 16), two: 48},
		{topo: MustNew(HyperX, 27), two: 90},
		{topo: MustNew(HyperX, 32), one: 13, two: 288, trans: 15},
		{topo: dfly(4, 4, 1)},
		{topo: dfly(4, 4, 2)},
		{topo: dfly(8, 4, 1)},
		{topo: dfly(8, 4, 2)},
	}
}

// cyclicSets tallies the avoided sets of one kind and keeps the first
// witness cycle.
type cyclicSets struct {
	what          string
	tried, cyclic int
	witness       string
}

func (c *cyclicSets) add(t *testing.T, set string, err error) {
	t.Helper()
	c.tried++
	var cyc *CycleError
	switch {
	case err == nil:
	case errors.As(err, &cyc):
		c.cyclic++
		if c.witness == "" {
			c.witness = fmt.Sprintf("%s: %v", set, err)
		}
	default:
		t.Fatalf("%s: %v", set, err)
	}
}

func (c *cyclicSets) pin(t *testing.T, topo Topology, ceiling int) {
	t.Helper()
	switch {
	case c.cyclic > ceiling:
		t.Errorf("%v: %d of %d %s close a buffer-dependency cycle, above the ceiling %d; first witness %s",
			topo, c.cyclic, c.tried, c.what, ceiling, c.witness)
	case c.cyclic < ceiling:
		t.Errorf("%v: %d of %d %s close a buffer-dependency cycle, below the ceiling %d: lower the pin",
			topo, c.cyclic, c.tried, c.what, ceiling)
	}
}

// differingDims counts the coordinates in which a and b differ.
func differingDims(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// TestHealedRouteCertificate checks Topology.Hop and ReplacementHop
// exhaustively over every avoided set of one or two nodes, and the
// transition views of one dead node, on every family at n <= 32 with
// partial populations and Dragonfly h in {1, 2}. Every hop is dst or a live
// neighbour, keeps NextHop's choice when that is live, and (on grids)
// corrects exactly one differing dimension; every healed route reaches its
// destination within MaxHops edges without entering an avoided node. The
// number of avoided sets whose routes close a buffer-dependency cycle is
// pinned per family (see healedCases); FCG and Dragonfly have none.
func TestHealedRouteCertificate(t *testing.T) {
	for _, tc := range healedCases(t) {
		topo := tc.topo
		t.Run(topo.String(), func(t *testing.T) {
			t.Parallel()
			n := topo.Nodes()
			coords := make([][]int, n)
			for v := range coords {
				coords[v] = topo.Coord(v)
			}
			for v := 0; v < n; v++ {
				if hop, ok := topo.Hop(v, v, func(int) bool { return true }); hop != v || !ok {
					t.Fatalf("Hop(%d, %d, all avoided) = %d, %v; want %d, true", v, v, hop, ok, v)
				}
			}
			// maxHops bounds a route around k avoided nodes. A grid hop
			// corrects one whole dimension, so MaxHops holds. A Dragonfly
			// gateway whose global link lands on an avoided router passes
			// the route one gateway up, so each avoided node can cost one
			// more ascending local hop.
			maxHops := func(k int) int {
				if topo.Kind() == Dragonfly {
					return topo.MaxHops() + k
				}
				return topo.MaxHops()
			}
			dead := make([]bool, n)
			down := func(v int) bool { return dead[v] }
			// avoiding is the hop rule of a node that avoids every dead
			// node: ReplacementHop plus the certificate's per-hop checks.
			avoiding := func(cur, dst int) int {
				hop, ok := ReplacementHop(topo, cur, dst, down)
				if !ok {
					return -1
				}
				switch {
				case dead[hop]:
					t.Fatalf("Hop(%d, %d) entered the avoided node %d", cur, dst, hop)
				case hop != dst && !topo.Connected(cur, hop):
					t.Fatalf("Hop(%d, %d) = %d is not a neighbour", cur, dst, hop)
				case topo.Kind() != Dragonfly &&
					differingDims(coords[hop], coords[dst]) != differingDims(coords[cur], coords[dst])-1:
					t.Fatalf("Hop(%d, %d) = %d does not correct exactly one dimension", cur, dst, hop)
				}
				if pref := topo.NextHop(cur, dst); !dead[pref] && hop != pref {
					t.Fatalf("Hop(%d, %d) = %d passed over NextHop's live %d", cur, dst, hop, pref)
				}
				return hop
			}
			healed := func(cur, dst int) int {
				if dead[cur] {
					return -1
				}
				return avoiding(cur, dst)
			}
			// In a transition view only inLine avoids the dead node; a
			// walk that reaches it ends there, the send parked on the dead
			// edge.
			inLine := make([]bool, n)
			transition := func(cur, dst int) int {
				switch {
				case dead[cur] || dead[dst]:
					return -1
				case inLine[cur]:
					return avoiding(cur, dst)
				}
				return topo.NextHop(cur, dst)
			}

			one := cyclicSets{what: "single dead nodes"}
			two := cyclicSets{what: "dead pairs"}
			trans := cyclicSets{what: "transition views"}
			for a := 0; a < n; a++ {
				dead[a] = true
				one.add(t, fmt.Sprintf("{%d} dead", a), CheckRouterDeadlockFree(n, healed, maxHops(1)))
				for b := a + 1; b < n; b++ {
					dead[b] = true
					two.add(t, fmt.Sprintf("{%d, %d} dead", a, b), CheckRouterDeadlockFree(n, healed, maxHops(2)))
					dead[b] = false
				}
				for _, line := range Lines(topo, a) {
					for _, v := range line {
						inLine[v] = true
					}
					trans.add(t, fmt.Sprintf("{%d} dead, seen by line %v", a, line),
						CheckRouterDeadlockFree(n, transition, maxHops(1)))
					for _, v := range line {
						inLine[v] = false
					}
				}
				dead[a] = false
			}
			one.pin(t, topo, tc.one)
			two.pin(t, topo, tc.two)
			trans.pin(t, topo, tc.trans)
		})
	}
}
