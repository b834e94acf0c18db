// Package core implements the paper's primary contribution: virtual
// topologies that describe how a Global Address Space runtime allocates
// request buffers among nodes, together with the deadlock-free
// Lowest-Dimension-First (LDF) forwarding rule.
//
// A virtual topology is a directed graph over compute nodes. An edge between
// nodes i and j means each dedicates a set of request buffers to the other,
// so the out-degree of a node determines its communication memory footprint
// and the tree of request paths into a node determines how hot-spot
// contention fans in.
//
// All four topologies studied by the paper are instances of one family: a
// k-dimensional grid whose axis-aligned groups are fully connected.
//
//   - FCG (k=1):       the default ARMCI allocation, O(N) buffers/node.
//   - MFCG (k=2):      meshed FCGs, O(sqrt N) buffers/node, <=1 forward.
//   - CFCG (k=3):      cubic FCGs, O(cbrt N) buffers/node, <=2 forwards.
//   - Hypercube (k=log2 N): O(log2 N) buffers/node, <=log2(N)-1 forwards.
//
// MFCG and CFCG support any node count via partial population: node IDs fill
// the lowest dimensions first, so only the highest dimension can be ragged,
// and the extended LDF rule ("only forward to D <= M", Section IV-B of the
// paper) keeps routing deadlock-free.
package core

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one of the paper's virtual topologies.
type Kind int

// The four virtual topologies evaluated in the paper, plus the two
// generalized families built on top of them.
const (
	FCG Kind = iota
	MFCG
	CFCG
	Hypercube
	// HyperX is the k-ary n-flat family the paper's four topologies are all
	// points of: a grid with arbitrary dimension count and per-dimension
	// extents, all-to-all along every axis, partially populated under the
	// same lowest-dimension-first ordering (generalized D <= M rule).
	HyperX
	// Dragonfly groups routers into fully connected groups joined by global
	// links, routed group-local -> global -> group-local in at most 3 hops.
	Dragonfly
)

// Kinds lists the paper's four topology kinds in presentation order. The
// figure drivers that reproduce the paper's plots iterate exactly these.
var Kinds = []Kind{FCG, MFCG, CFCG, Hypercube}

// AllKinds lists every topology family, the paper's four plus the
// generalized HyperX and Dragonfly families.
var AllKinds = []Kind{FCG, MFCG, CFCG, Hypercube, HyperX, Dragonfly}

// String returns the paper's name for the topology kind.
func (k Kind) String() string {
	switch k {
	case FCG:
		return "FCG"
	case MFCG:
		return "MFCG"
	case CFCG:
		return "CFCG"
	case Hypercube:
		return "Hypercube"
	case HyperX:
		return "HyperX"
	case Dragonfly:
		return "Dragonfly"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a (case-insensitive) topology name to its Kind. For
// names with parameters ("hyperx:8x8x4") see ParseSpec.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fcg", "flat":
		return FCG, nil
	case "mfcg", "mesh":
		return MFCG, nil
	case "cfcg", "cube":
		return CFCG, nil
	case "hypercube", "hcube", "hc":
		return Hypercube, nil
	case "hyperx", "hx":
		return HyperX, nil
	case "dragonfly", "dfly":
		return Dragonfly, nil
	default:
		return 0, fmt.Errorf("core: unknown topology %q (want FCG, MFCG, CFCG, Hypercube, HyperX, or Dragonfly)", s)
	}
}

// Topology is a virtual resource-allocation graph over Nodes() compute
// nodes, with LDF next-hop routing.
type Topology interface {
	// Kind reports which of the paper's topologies this is.
	Kind() Kind
	// Nodes returns the number of nodes (vertices).
	Nodes() int
	// Dims returns the number of virtual dimensions k.
	Dims() int
	// Shape returns the extent of each dimension (lowest dimension first).
	// The product may exceed Nodes() for partially populated topologies.
	Shape() []int
	// Coord returns the node's virtual coordinates (length Dims()).
	Coord(node int) []int
	// NodeAt is the inverse of Coord. It returns -1 for coordinates that
	// fall outside the populated region.
	NodeAt(coord []int) int
	// Connected reports whether a and b share a direct edge (i.e. hold
	// request buffers for each other). A node is not connected to itself.
	Connected(a, b int) bool
	// Neighbors returns the direct peers of node in ascending order. Its
	// length is the node's buffer out-degree.
	Neighbors(node int) []int
	// AppendNeighbors appends Neighbors(node) to dst and returns the
	// extended slice; it allocates only when dst must grow.
	AppendNeighbors(dst []int, node int) []int
	// Degree returns len(Neighbors(node)) without allocating.
	Degree(node int) int
	// NextHop returns the next node on the LDF route from src toward dst;
	// it returns dst when directly connected and src when src == dst.
	// It is Hop(src, dst, nil).
	NextHop(src, dst int) int
	// Hop walks the family's admissible next hops from src toward dst in
	// NextHop's order and returns the first that is dst itself or that
	// avoid does not reject; a nil avoid rejects nothing. ok is false when
	// avoid rejects every admissible hop. Hop(src, src, _) is src. Every
	// admissible hop is a neighbour or dst, and only NextHop's order is
	// guaranteed deadlock-free (see ReplacementHop).
	Hop(src, dst int, avoid func(node int) bool) (hop int, ok bool)
	// MaxHops returns an upper bound on route length (in edges) between
	// any pair of nodes.
	MaxHops() int
	// String describes the topology, e.g. "MFCG 32x32 (1024 nodes)".
	String() string
}

// New builds the standard topology of the given kind over n nodes, using the
// paper's shapes: near-square meshes for MFCG, near-cubes for CFCG, and
// power-of-two hypercubes (Hypercube returns an error otherwise, matching the
// paper's restriction).
func New(kind Kind, n int) (Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: topology needs at least 1 node, got %d", n)
	}
	switch kind {
	case FCG:
		return newGrid(FCG, []int{n}, n)
	case MFCG:
		x, y := MeshShape(n)
		return newGrid(MFCG, []int{x, y}, n)
	case CFCG:
		x, y, z := CubeShape(n)
		return newGrid(CFCG, []int{x, y, z}, n)
	case Hypercube:
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("core: hypercube requires a power-of-two node count, got %d", n)
		}
		k := 0
		for 1<<k < n {
			k++
		}
		shape := make([]int, k)
		for i := range shape {
			shape[i] = 2
		}
		if k == 0 {
			shape = []int{1}
		}
		return newGrid(Hypercube, shape, n)
	case HyperX:
		return newGrid(HyperX, HyperXShape(n), n)
	case Dragonfly:
		g, a := DragonflyShape(n)
		return NewDragonfly(g, a, 1)
	default:
		return nil, fmt.Errorf("core: unknown kind %v", kind)
	}
}

// MustNew is New but panics on error; convenient for tests and examples with
// known-valid arguments.
func MustNew(kind Kind, n int) Topology {
	t, err := New(kind, n)
	if err != nil {
		panic(err)
	}
	return t
}

// NewMesh builds an MFCG with an explicit X x Y shape over n nodes
// (n <= x*y). Used by the mesh-aspect-ratio ablation.
func NewMesh(x, y, n int) (Topology, error) {
	return newGrid(MFCG, []int{x, y}, n)
}

// NewCube builds a CFCG with an explicit X x Y x Z shape over n nodes.
func NewCube(x, y, z, n int) (Topology, error) {
	return newGrid(CFCG, []int{x, y, z}, n)
}

// MeshShape returns the paper's near-square mesh covering n nodes: X is the
// ceiling square root and Y the minimal extent with X*Y >= n.
func MeshShape(n int) (x, y int) {
	x = int(math.Ceil(math.Sqrt(float64(n))))
	if x < 1 {
		x = 1
	}
	y = (n + x - 1) / x
	if y < 1 {
		y = 1
	}
	return x, y
}

// CubeShape returns a near-cubic X x Y x Z shape covering n nodes.
func CubeShape(n int) (x, y, z int) {
	x = int(math.Ceil(math.Cbrt(float64(n))))
	if x < 1 {
		x = 1
	}
	y = int(math.Ceil(math.Sqrt(float64(n) / float64(x))))
	if y < 1 {
		y = 1
	}
	z = (n + x*y - 1) / (x * y)
	if z < 1 {
		z = 1
	}
	return x, y, z
}

// Route returns the full LDF path from src to dst, inclusive of both
// endpoints. Route(src, src) is [src].
func Route(t Topology, src, dst int) []int {
	path := []int{src}
	cur := src
	for cur != dst {
		next := t.NextHop(cur, dst)
		if next == cur {
			panic(fmt.Sprintf("core: NextHop(%d,%d) made no progress on %v", cur, dst, t))
		}
		path = append(path, next)
		cur = next
		if len(path) > t.Dims()+2 {
			panic(fmt.Sprintf("core: route %d->%d exceeded hop bound on %v: %v", src, dst, t, path))
		}
	}
	return path
}

// Hops returns the number of edges on the LDF route from src to dst.
func Hops(t Topology, src, dst int) int { return len(Route(t, src, dst)) - 1 }

// TotalEdges returns the number of directed edges in the resource graph,
// N*(N-1) for FCG.
func TotalEdges(t Topology) int {
	total := 0
	for v := 0; v < t.Nodes(); v++ {
		total += t.Degree(v)
	}
	return total
}
