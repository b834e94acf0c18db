package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// lineTopos is the coverage grid for Lines: every family, the partial
// populations of MFCG and CFCG, and Dragonfly with one and two global links
// per router (plus the rest of the Dragonfly property grid).
func lineTopos(t *testing.T) []Topology {
	t.Helper()
	var topos []Topology
	for _, kind := range AllKinds {
		for _, n := range []int{1, 2, 10, 16, 27, 50, 64} {
			if topo, err := New(kind, n); err == nil {
				topos = append(topos, topo)
			}
		}
	}
	for _, tc := range dragonflyConfigs {
		topo, err := NewDragonfly(tc.g, tc.a, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// hideLines wraps a topology so Lines cannot see its structural method and
// takes the generic coordinate path instead.
type hideLines struct{ Topology }

// TestLinesPartitionNeighborsIntoCliques checks the contract a ring failure
// detector relies on: the lines of a node are ascending, disjoint, cover
// exactly its neighbors, are cliques, and look the same from every member.
// On the grid family the structural lines must equal the generic rule's.
func TestLinesPartitionNeighborsIntoCliques(t *testing.T) {
	for _, topo := range lineTopos(t) {
		t.Run(topo.String(), func(t *testing.T) {
			for node := 0; node < topo.Nodes(); node++ {
				lines := Lines(topo, node)
				if g, ok := topo.(*grid); ok {
					if generic := Lines(hideLines{g}, node); fmt.Sprint(lines) != fmt.Sprint(generic) {
						t.Fatalf("node %d: grid lines %v, generic rule %v", node, lines, generic)
					}
				}
				var all []int
				for _, line := range lines {
					if len(line) == 0 || !sort.IntsAreSorted(line) {
						t.Fatalf("node %d: line %v empty or unsorted", node, line)
					}
					for i, a := range line {
						if a == node {
							t.Fatalf("node %d is on its own line %v", node, line)
						}
						for _, b := range line[i+1:] {
							if !topo.Connected(a, b) {
								t.Fatalf("node %d: line %v is no clique (%d-%d)", node, line, a, b)
							}
						}
						if !hasLine(Lines(topo, a), with(line, node, a)) {
							t.Fatalf("node %d: line %v is not a line of member %d (%v)", node, line, a, Lines(topo, a))
						}
					}
					all = append(all, line...)
				}
				sort.Ints(all)
				if nbrs := topo.Neighbors(node); fmt.Sprint(all) != fmt.Sprint(nbrs) {
					t.Fatalf("node %d: lines %v do not partition neighbors %v", node, lines, nbrs)
				}
			}
		})
	}
}

// TestLinesPerFamily pins the line counts the detector's probe load follows:
// one line per grid dimension, one-member lines on Hypercube, and the group
// plus the hub rail at a Dragonfly hub.
func TestLinesPerFamily(t *testing.T) {
	for _, tc := range []struct {
		kind      Kind
		n, lines  int
		maxMember int
	}{
		{FCG, 64, 1, 63},
		{MFCG, 256, 2, 15},
		{CFCG, 64, 3, 3},
		{Hypercube, 64, 6, 1},
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.kind, tc.n), func(t *testing.T) {
			topo := MustNew(tc.kind, tc.n)
			for node := 0; node < tc.n; node++ {
				lines := Lines(topo, node)
				if len(lines) != tc.lines {
					t.Fatalf("node %d has %d lines, want %d", node, len(lines), tc.lines)
				}
				for _, line := range lines {
					if len(line) != tc.maxMember {
						t.Fatalf("node %d: line %v has %d members, want %d", node, line, len(line), tc.maxMember)
					}
				}
			}
		})
	}
	d, err := NewDragonfly(9, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	hub := 3 // router a-1 of group 0
	lines := Lines(d, hub)
	if len(lines) != 2 || len(lines[0]) != 3 || len(lines[1]) != 8 {
		t.Errorf("Dragonfly hub lines %v, want its group (3 peers) and the hub rail (8 peers)", lines)
	}
}

// with returns line with node added and member removed, in ascending order:
// the same line as member sees it.
func with(line []int, node, member int) []int {
	out := []int{node}
	for _, u := range line {
		if u != member {
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

func hasLine(lines [][]int, want []int) bool {
	for _, l := range lines {
		if reflect.DeepEqual(l, want) {
			return true
		}
	}
	return false
}
