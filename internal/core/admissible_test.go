package core

import "testing"

// admissibleHops lists Hop's admissible next hops from src toward dst in
// order, by re-asking Hop with every hop already listed avoided. Hop never
// avoids dst, so the list ends at dst when dst is admissible. It is nil for
// src == dst.
func admissibleHops(topo Topology, src, dst int) []int {
	if src == dst {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for {
		hop, ok := topo.Hop(src, dst, func(n int) bool { return seen[n] })
		if !ok {
			return out
		}
		out = append(out, hop)
		if hop == dst {
			return out
		}
		seen[hop] = true
	}
}

func TestAdmissibleHopsFirstIsNextHop(t *testing.T) {
	for _, kind := range Kinds {
		for _, n := range []int{5, 16, 30, 64} {
			if kind == Hypercube && n&(n-1) != 0 {
				continue
			}
			topo := MustNew(kind, n)
			for src := 0; src < n; src += 3 {
				for dst := 0; dst < n; dst += 2 {
					if src == dst {
						if hop, ok := topo.Hop(src, dst, nil); !ok || hop != src {
							t.Fatalf("%v: Hop(%d,%d) = %d,%v, want %d,true", topo, src, dst, hop, ok, src)
						}
						continue
					}
					hops := admissibleHops(topo, src, dst)
					if len(hops) == 0 {
						t.Fatalf("%v: no admissible hop %d->%d", topo, src, dst)
					}
					if want := topo.NextHop(src, dst); hops[0] != want {
						t.Fatalf("%v: admissible hops %d->%d start at %d, NextHop = %d",
							topo, src, dst, hops[0], want)
					}
					for _, h := range hops {
						if !topo.Connected(src, h) && h != dst {
							t.Fatalf("%v: admissible hop %d of %d->%d not a neighbor",
								topo, h, src, dst)
						}
					}
				}
			}
		}
	}
}

func TestAdmissibleHopsReduceDistance(t *testing.T) {
	topo := MustNew(CFCG, 60)
	differing := func(a, b int) int {
		ca, cb := topo.Coord(a), topo.Coord(b)
		d := 0
		for i := range ca {
			if ca[i] != cb[i] {
				d++
			}
		}
		return d
	}
	for src := 0; src < 60; src++ {
		for dst := 0; dst < 60; dst++ {
			if src == dst {
				continue
			}
			before := differing(src, dst)
			for _, h := range admissibleHops(topo, src, dst) {
				if differing(h, dst) != before-1 {
					t.Fatalf("hop %d of %d->%d does not reduce differing dims", h, src, dst)
				}
			}
		}
	}
}
