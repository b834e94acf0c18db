package core

import "testing"

func TestReplacementHopAvoidsDeadNodes(t *testing.T) {
	alive := func(int) bool { return false }
	for _, kind := range Kinds {
		for _, n := range []int{16, 64} {
			if kind == Hypercube && n&(n-1) != 0 {
				continue
			}
			topo := MustNew(kind, n)
			for src := 0; src < n; src += 3 {
				for dst := 0; dst < n; dst += 5 {
					if src == dst {
						continue
					}
					// Healthy machine: the replacement is the LDF next hop.
					hop, ok := ReplacementHop(topo, src, dst, alive)
					if !ok || hop != topo.NextHop(src, dst) {
						t.Fatalf("%v: ReplacementHop(%d,%d, healthy) = %d,%v; want NextHop %d",
							topo, src, dst, hop, ok, topo.NextHop(src, dst))
					}
					// Kill the preferred hop (when it is not the destination):
					// the replacement must be a different admissible hop, a
					// neighbour that corrects one differing dimension.
					pref := topo.NextHop(src, dst)
					if pref == dst {
						continue
					}
					down := func(node int) bool { return node == pref }
					hop, ok = ReplacementHop(topo, src, dst, down)
					if ok {
						if hop == pref {
							t.Fatalf("%v: ReplacementHop(%d,%d) elected the dead node %d", topo, src, dst, pref)
						}
						before := differingDims(topo.Coord(src), topo.Coord(dst))
						if !topo.Connected(src, hop) || differingDims(topo.Coord(hop), topo.Coord(dst)) != before-1 {
							t.Fatalf("%v: replacement %d for %d->%d is not admissible", topo, hop, src, dst)
						}
					}
				}
			}
		}
	}
}

func TestReplacementHopDeterministic(t *testing.T) {
	topo := MustNew(MFCG, 64)
	down := func(node int) bool { return node == topo.NextHop(2, 63) }
	a, okA := ReplacementHop(topo, 2, 63, down)
	b, okB := ReplacementHop(topo, 2, 63, down)
	if a != b || okA != okB {
		t.Fatalf("election not deterministic: %d,%v vs %d,%v", a, okA, b, okB)
	}
}

func TestReplacementHopDeadDestination(t *testing.T) {
	topo := MustNew(MFCG, 16)
	down := func(node int) bool { return node == 9 }
	if hop, ok := ReplacementHop(topo, 0, 9, down); ok {
		t.Fatalf("ReplacementHop to a dead destination returned %d, want none", hop)
	}
}
