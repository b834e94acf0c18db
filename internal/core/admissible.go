package core

// admissibleHopper is implemented by topologies whose admissible-hop set is
// not the grid family's dimension corrections (Dragonfly's class-ordered
// gateways). AdmissibleHops delegates to it when present.
type admissibleHopper interface {
	AdmissibleHops(src, dst int) []int
}

// AdmissibleHops returns every next hop from src toward dst that one
// LDF-style dimension correction can reach: for each dimension where the two
// nodes' virtual coordinates differ, the node with src's coordinate in that
// dimension replaced by dst's, when that position is populated. Each entry
// strictly reduces the number of differing dimensions, so routing through any
// of them preserves the paper's D <= M hop bound; the first entry is always
// the hop NextHop itself picks (lowest correctable dimension first), and the
// rest are the fallbacks — the next populated row/column — a runtime can
// reroute through when the preferred intermediate is unavailable.
//
// The hop bound is all the fallbacks keep: they correct dimensions out of
// LDF order, so routes mixing them can close buffer-dependency cycles
// (see ReplacementHop; ROADMAP item 2).
//
// Topologies that are not coordinate-correction grids provide their own set
// with the same contract (true neighbors, hop bound preserved, preferred hop
// first) via the optional AdmissibleHops method.
func AdmissibleHops(t Topology, src, dst int) []int {
	if ah, ok := t.(admissibleHopper); ok {
		return ah.AdmissibleHops(src, dst)
	}
	if src == dst {
		return nil
	}
	s := t.Coord(src)
	d := t.Coord(dst)
	var out []int
	for i := range s {
		if s[i] == d[i] {
			continue
		}
		c := append([]int(nil), s...)
		c[i] = d[i]
		if hop := t.NodeAt(c); hop >= 0 {
			out = append(out, hop)
		}
	}
	return out
}
