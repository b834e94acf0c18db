package core

import "sort"

// liner is implemented by topologies that know their lines structurally (the
// grid family, whose every axis-aligned line is fully connected). Lines
// delegates to it when present: the generic rule below calls Neighbors and
// Coord for every member of every line, O(N) allocations per line of N.
// Measured on a 2-core x86-64 host, go1.24, with only the generic rule: the
// bench chaos_heal workload (MFCG 256x2, heal on) went from 5.1 to 34.9
// allocs/op, and a 256-node FCG heal-on chaos sweep point (3 crashes, 20
// ops per rank) from 0.19 s to 1.1 s.
type liner interface {
	Lines(node int) [][]int
}

// Lines partitions Neighbors(node) into lines: cliques of the virtual
// topology through node, each listed in ascending id order without node
// itself. A line is what a failure detector can watch as one ring — every
// member sees the same line, so one observer per member covers it and a
// notice from that observer reaches every other member in one hop.
//
// The neighbors that differ from node in exactly one virtual coordinate d
// form node's d-line when, together with node, they are pairwise Connected
// and every one of them has the same d-line (so the line looks the same from
// each member). Every other neighbor forms a line of its own. Lines come in
// dimension order, then the single-member lines by id.
//
// On the grid family the d-line is the populated part of the axis-aligned
// line through node: FCG has 1 line, MFCG 2, CFCG 3, and every Hypercube
// line has one member. On Dragonfly the group is one line and the hub rail
// another; spread global links form lines of their own unless their group
// pairs happen to close a clique.
func Lines(t Topology, node int) [][]int {
	if l, ok := t.(liner); ok {
		return l.Lines(node)
	}
	c := t.Coord(node)
	byDim := make([][]int, len(c))
	var rest []int
	for _, u := range t.Neighbors(node) {
		if d := soleDiff(c, t.Coord(u)); d >= 0 {
			byDim[d] = append(byDim[d], u)
		} else {
			rest = append(rest, u)
		}
	}
	var lines [][]int
	for d, s := range byDim {
		switch {
		case len(s) == 0:
		case isLine(t, d, s):
			lines = append(lines, s)
		default:
			rest = append(rest, s...)
		}
	}
	sort.Ints(rest)
	for _, u := range rest {
		lines = append(lines, []int{u})
	}
	return lines
}

// Lines lists the populated axis-aligned line through node in each dimension,
// lowest first, skipping dimensions where node has no populated peer.
func (g *grid) Lines(node int) [][]int {
	g.checkNode(node)
	most := 0
	for _, s := range g.shape {
		most += s - 1
	}
	lines := make([][]int, 0, len(g.shape))
	all := make([]int, 0, most) // every line is a window of one backing array
	for i, s := range g.shape {
		c, start := node/g.stride[i]%s, len(all)
		for v := 0; v < s; v++ {
			if id := node + (v-c)*g.stride[i]; v != c && id < g.n {
				all = append(all, id)
			}
		}
		if len(all) > start {
			lines = append(lines, all[start:len(all):len(all)])
		}
	}
	return lines
}

// soleDiff returns the one coordinate in which a and b differ, or -1 when
// they differ in none or in several.
func soleDiff(a, b []int) int {
	d := -1
	for i := range a {
		if a[i] != b[i] {
			if d >= 0 {
				return -1
			}
			d = i
		}
	}
	return d
}

// isLine reports whether s — a node's neighbors differing from it only in
// coordinate d — is that node's d-line: pairwise Connected (with the node
// itself, which is adjacent to all of them), and seen the same from every
// member. Given the clique, a member's own d-neighbors include the rest of
// the line, so the line is the same from there exactly when the member has
// no further d-neighbors.
func isLine(t Topology, d int, s []int) bool {
	for i, a := range s {
		for _, b := range s[i+1:] {
			if !t.Connected(a, b) {
				return false
			}
		}
	}
	for _, x := range s {
		c, n := t.Coord(x), 0
		for _, u := range t.Neighbors(x) {
			if soleDiff(c, t.Coord(u)) == d {
				n++
			}
		}
		if n != len(s) {
			return false
		}
	}
	return true
}
