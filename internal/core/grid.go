package core

import (
	"fmt"
	"strings"
)

// grid is the shared implementation behind all four topologies: n nodes laid
// out lexicographically (lowest dimension varies fastest) on a k-dimensional
// grid, where every axis-aligned line of nodes is a fully connected group.
// Only the highest dimension may be partially populated, which is exactly
// the ordering Section IV-B of the paper requires for extended LDF.
type grid struct {
	kind   Kind
	shape  []int // extent per dimension, lowest first
	stride []int // stride[i] = product of shape[0..i-1]
	n      int   // populated node count; ids 0..n-1 are valid
}

func newGrid(kind Kind, shape []int, n int) (*grid, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("core: empty shape")
	}
	capacity := 1
	stride := make([]int, len(shape))
	for i, s := range shape {
		if s < 1 {
			return nil, fmt.Errorf("core: shape extent %d must be >= 1", s)
		}
		stride[i] = capacity
		capacity *= s
	}
	if n < 1 || n > capacity {
		return nil, fmt.Errorf("core: %d nodes do not fit shape %v (capacity %d)", n, shape, capacity)
	}
	// All dimensions below the highest must be fully populated, i.e. the
	// populated region must be a prefix of lexicographic order covering
	// whole hyperplanes except possibly the top one. That holds for any n
	// given this addressing, so no further check is needed.
	return &grid{kind: kind, shape: shape, stride: stride, n: n}, nil
}

func (g *grid) Kind() Kind   { return g.kind }
func (g *grid) Nodes() int   { return g.n }
func (g *grid) Dims() int    { return len(g.shape) }
func (g *grid) Shape() []int { return append([]int(nil), g.shape...) }

func (g *grid) String() string {
	dims := make([]string, len(g.shape))
	for i, s := range g.shape {
		dims[i] = fmt.Sprint(s)
	}
	full := ""
	capacity := g.stride[len(g.stride)-1] * g.shape[len(g.shape)-1]
	if g.n < capacity {
		full = ", partial"
	}
	return fmt.Sprintf("%s %s (%d nodes%s)", g.kind, strings.Join(dims, "x"), g.n, full)
}

func (g *grid) checkNode(node int) {
	if node < 0 || node >= g.n {
		panic(fmt.Sprintf("core: node %d out of range [0,%d) on %v", node, g.n, g))
	}
}

func (g *grid) Coord(node int) []int {
	g.checkNode(node)
	c := make([]int, len(g.shape))
	for i := range g.shape {
		c[i] = node / g.stride[i] % g.shape[i]
	}
	return c
}

func (g *grid) NodeAt(coord []int) int {
	if len(coord) != len(g.shape) {
		return -1
	}
	id := 0
	for i, c := range coord {
		if c < 0 || c >= g.shape[i] {
			return -1
		}
		id += c * g.stride[i]
	}
	if id >= g.n {
		return -1
	}
	return id
}

func (g *grid) Connected(a, b int) bool {
	g.checkNode(a)
	g.checkNode(b)
	if a == b {
		return false
	}
	// Connected iff coordinates differ in exactly one dimension.
	diff := 0
	for i := range g.shape {
		if a/g.stride[i]%g.shape[i] != b/g.stride[i]%g.shape[i] {
			diff++
			if diff > 1 {
				return false
			}
		}
	}
	return diff == 1
}

func (g *grid) Neighbors(node int) []int {
	return g.AppendNeighbors(make([]int, 0, g.Degree(node)), node)
}

// AppendNeighbors walks node's peers arithmetically, in ascending order by
// construction: first the lower peers, highest dimension first (a lower
// peer in dimension i lies within stride[i+1] below node, above every lower
// peer of a higher dimension), then the higher peers, lowest dimension
// first. Lower peers are always populated; the higher peers of a dimension
// ascend, so the first unpopulated one ends the walk. The first pass peels
// node's coordinates off highest first, one division per dimension, and
// keeps them for the second.
func (g *grid) AppendNeighbors(dst []int, node int) []int {
	g.checkNode(node)
	var cbuf [64]int
	c := cbuf[:]
	if len(g.shape) > len(cbuf) {
		c = make([]int, len(g.shape))
	}
	rem := node
	for i := len(g.shape) - 1; i >= 0; i-- {
		st := g.stride[i]
		c[i] = rem / st
		rem -= c[i] * st
		for id := node - c[i]*st; id < node; id += st {
			dst = append(dst, id)
		}
	}
	for i, st := range g.stride {
		for k, id := c[i]+1, node+st; k < g.shape[i]; k, id = k+1, id+st {
			if id >= g.n {
				return dst
			}
			dst = append(dst, id)
		}
	}
	return dst
}

// Degree counts, per dimension, the populated peers on node's line: every
// lower one, and the higher ones below n.
func (g *grid) Degree(node int) int {
	g.checkNode(node)
	deg := 0
	for i, st := range g.stride {
		c := node / st % g.shape[i]
		higher := g.shape[i] - 1 - c
		if room := (g.n - 1 - node) / st; room < higher {
			higher = room
		}
		deg += c + higher
	}
	return deg
}

// NextHop implements extended LDF (Algorithm 1 plus the D <= M rule): pick
// the lowest dimension where src and dst differ such that correcting it
// lands on a populated node. Section IV-B's strict lowest-dimension-first
// node ordering guarantees such a dimension exists for the 1-D, 2-D and 3-D
// grids and for full hypercubes.
func (g *grid) NextHop(src, dst int) int {
	if hop, ok := g.Hop(src, dst, nil); ok {
		return hop
	}
	panic(fmt.Sprintf("core: extended LDF found no valid hop %d->%d on %v", src, dst, g))
}

// Hop's admissible hops are the populated single-dimension corrections,
// lowest dimension first: each corrects one whole differing dimension, so
// every one of them keeps the route within MaxHops, and the first is LDF's.
// The later ones correct dimensions out of LDF order.
func (g *grid) Hop(src, dst int, avoid func(node int) bool) (int, bool) {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst {
		return src, true
	}
	for i, st := range g.stride {
		s, t := src/st%g.shape[i], dst/st%g.shape[i]
		if s == t {
			continue
		}
		// Candidate D: src with dimension i corrected.
		if d := src + (t-s)*st; d < g.n && (avoid == nil || d == dst || !avoid(d)) {
			return d, true
		}
	}
	return -1, false
}

func (g *grid) MaxHops() int { return len(g.shape) }
