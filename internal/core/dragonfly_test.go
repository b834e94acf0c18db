package core

import (
	"fmt"
	"testing"
)

// dragonflyConfigs is the property-test grid: degenerate single-group and
// single-router cases, hub-rail-only (h=0), and increasingly wired spreads.
var dragonflyConfigs = []struct{ g, a, h int }{
	{1, 1, 0},
	{2, 1, 1},
	{3, 2, 1},
	{4, 3, 1},
	{5, 2, 0},
	{8, 8, 1},
	{9, 4, 2},
	{6, 5, 3},
	{12, 3, 2},
	{16, 4, 4}, // spread saturates at a-1
}

// TestDragonflyDeadlockFreeGrid proves the peak-ordered router deadlock-free
// for every configuration and checks the structural contract: symmetric
// connectivity, neighbor/degree agreement, minimal (<= 3 hop) routes over
// real edges, alternates around the preferred hop that stay on real edges and
// converge, and Coord/NodeAt inverses.
func TestDragonflyDeadlockFreeGrid(t *testing.T) {
	for _, tc := range dragonflyConfigs {
		t.Run(fmt.Sprintf("g=%d,a=%d,h=%d", tc.g, tc.a, tc.h), func(t *testing.T) {
			topo, err := NewDragonfly(tc.g, tc.a, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckDeadlockFree(topo); err != nil {
				t.Fatalf("not deadlock-free: %v", err)
			}
			n := topo.Nodes()
			if n != tc.g*tc.a {
				t.Fatalf("Nodes() = %d, want %d", n, tc.g*tc.a)
			}
			for v := 0; v < n; v++ {
				if got := topo.NodeAt(topo.Coord(v)); got != v {
					t.Fatalf("NodeAt(Coord(%d)) = %d", v, got)
				}
				nbrs := topo.Neighbors(v)
				if len(nbrs) != topo.Degree(v) {
					t.Fatalf("degree(%d) = %d but %d neighbors", v, topo.Degree(v), len(nbrs))
				}
				for _, u := range nbrs {
					if !topo.Connected(v, u) || !topo.Connected(u, v) {
						t.Fatalf("neighbor %d-%d not Connected both ways", v, u)
					}
				}
				for u := 0; u < n; u++ {
					if topo.Connected(v, u) != topo.Connected(u, v) {
						t.Fatalf("Connected(%d,%d) asymmetric", v, u)
					}
				}
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					path := Route(topo, src, dst)
					if len(path)-1 > 3 {
						t.Fatalf("route %d->%d took %d hops, minimal is 3", src, dst, len(path)-1)
					}
					for i := 1; i < len(path); i++ {
						if !topo.Connected(path[i-1], path[i]) {
							t.Fatalf("route %d->%d hops a non-edge %d-%d", src, dst, path[i-1], path[i])
						}
					}
					// An alternate around the preferred hop is a neighbour,
					// and NextHop from it converges within one extra hop.
					pref := path[1]
					alt, ok := topo.Hop(src, dst, func(v int) bool { return v == pref })
					if !ok || alt == dst {
						continue
					}
					if !topo.Connected(src, alt) || Hops(topo, alt, dst) > 3 {
						t.Fatalf("alternate %d of %d->%d (around %d): not a neighbour or %d hops on",
							alt, src, dst, pref, Hops(topo, alt, dst))
					}
				}
			}
		})
	}
}

// TestDragonflyAdmissibleHops checks the Hop contract the healing layer
// relies on: the preferred hop leads, every entry is a true neighbor, and
// routing through any entry still terminates within the bound without
// revisiting nodes.
func TestDragonflyAdmissibleHops(t *testing.T) {
	for _, tc := range dragonflyConfigs {
		topo, err := NewDragonfly(tc.g, tc.a, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		n := topo.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					if hop, ok := topo.Hop(src, dst, nil); !ok || hop != src {
						t.Fatalf("Hop(%d,%d) = %d,%v, want %d,true", src, dst, hop, ok, src)
					}
					continue
				}
				hops := admissibleHops(topo, src, dst)
				if len(hops) == 0 {
					t.Fatalf("g=%d,a=%d,h=%d: no admissible hops %d->%d", tc.g, tc.a, tc.h, src, dst)
				}
				if hops[0] != topo.NextHop(src, dst) {
					t.Fatalf("admissible hops %d->%d start at %d, NextHop = %d",
						src, dst, hops[0], topo.NextHop(src, dst))
				}
				for _, h := range hops {
					if !topo.Connected(src, h) {
						t.Fatalf("admissible hop %d from %d is not a neighbor", h, src)
					}
					// Resuming normal routing from any admissible hop must
					// still reach dst within the overall bound.
					at, steps := h, 1
					for at != dst {
						at = topo.NextHop(at, dst)
						steps++
						if steps > topo.MaxHops()+1 {
							t.Fatalf("rerouting via hop %d: %d->%d did not converge", h, src, dst)
						}
					}
				}
			}
		}
	}
}

// TestDragonflyHealElectsAlternative downs the preferred gateway between two
// groups and checks ReplacementHop elects a live alternative that still
// reaches the destination.
func TestDragonflyHealElectsAlternative(t *testing.T) {
	topo, err := NewDragonfly(9, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := 4
	src, dst := 0*a+0, 5*a+1 // group 0 router 0 -> group 5 router 1
	preferred := topo.NextHop(src, dst)
	if preferred/a == dst/a {
		t.Fatalf("test premise broken: preferred hop %d is already in the destination group", preferred)
	}
	down := func(node int) bool { return node == preferred }
	hop, ok := ReplacementHop(topo, src, dst, down)
	if !ok {
		t.Fatalf("no replacement hop with gateway %d down", preferred)
	}
	if hop == preferred {
		t.Fatalf("replacement elected the downed gateway %d", preferred)
	}
	at, steps := hop, 1
	for at != dst {
		if down(at) {
			t.Fatalf("replacement route passes through downed node %d", at)
		}
		at = topo.NextHop(at, dst)
		steps++
		if steps > 4 {
			t.Fatalf("replacement route %d->%d via %d did not converge", src, dst, hop)
		}
	}
}

// TestDragonflyDegenerates checks the family's boundary semantics: g=1 is a
// single fully connected group (an FCG), a=1 is a full mesh over groups via
// the hub rail.
func TestDragonflyDegenerates(t *testing.T) {
	single, err := NewDragonfly(1, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if single.Degree(v) != 5 {
			t.Fatalf("g=1: degree(%d) = %d, want 5 (full group)", v, single.Degree(v))
		}
	}
	rail, err := NewDragonfly(7, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 7; v++ {
		if rail.Degree(v) != 6 {
			t.Fatalf("a=1: degree(%d) = %d, want 6 (hub rail mesh)", v, rail.Degree(v))
		}
	}
}

func TestDragonflyShapeDefaults(t *testing.T) {
	for _, tc := range []struct{ n, g, a int }{
		{64, 8, 8}, {32, 8, 4}, {27, 9, 3}, {1, 1, 1}, {7, 7, 1}, {12, 4, 3},
	} {
		g, a := DragonflyShape(tc.n)
		if g != tc.g || a != tc.a {
			t.Errorf("DragonflyShape(%d) = (%d,%d), want (%d,%d)", tc.n, g, a, tc.g, tc.a)
		}
	}
	topo, err := New(Dragonfly, 64)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 64 || topo.Kind() != Dragonfly {
		t.Fatalf("New(Dragonfly, 64) = %v", topo)
	}
	if err := CheckDeadlockFree(topo); err != nil {
		t.Fatalf("default dragonfly: %v", err)
	}
}
