package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{FCG: "FCG", MFCG: "MFCG", CFCG: "CFCG", Hypercube: "Hypercube", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	ok := map[string]Kind{
		"fcg": FCG, "FCG": FCG, " flat ": FCG,
		"MFCG": MFCG, "mesh": MFCG,
		"cfcg": CFCG, "cube": CFCG,
		"Hypercube": Hypercube, "hc": Hypercube, "hcube": Hypercube,
	}
	for s, want := range ok {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v,%v want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("torus"); err == nil {
		t.Error("ParseKind(torus) did not fail")
	}
}

func TestMeshShape(t *testing.T) {
	cases := []struct{ n, x, y int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {9, 3, 3}, {7, 3, 3},
		{256, 16, 16}, {1024, 32, 32}, {1000, 32, 32}, {12, 4, 3},
	}
	for _, c := range cases {
		x, y := MeshShape(c.n)
		if x != c.x || y != c.y {
			t.Errorf("MeshShape(%d) = %dx%d, want %dx%d", c.n, x, y, c.x, c.y)
		}
		if x*y < c.n {
			t.Errorf("MeshShape(%d) = %dx%d does not cover n", c.n, x, y)
		}
	}
}

func TestCubeShape(t *testing.T) {
	for _, n := range []int{1, 2, 8, 27, 64, 100, 256, 1000, 1024, 4096} {
		x, y, z := CubeShape(n)
		if x*y*z < n {
			t.Errorf("CubeShape(%d) = %dx%dx%d does not cover n", n, x, y, z)
		}
		// Near-cubic: no dimension more than ~2x the cube root.
		cr := math.Cbrt(float64(n))
		for _, d := range []int{x, y, z} {
			if float64(d) > 2*cr+2 {
				t.Errorf("CubeShape(%d) = %dx%dx%d too skewed (cbrt=%.1f)", n, x, y, z, cr)
			}
		}
	}
	if x, y, z := CubeShape(27); x != 3 || y != 3 || z != 3 {
		t.Errorf("CubeShape(27) = %dx%dx%d, want 3x3x3", x, y, z)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(FCG, 0); err == nil {
		t.Error("New(FCG,0) succeeded")
	}
	if _, err := New(Hypercube, 12); err == nil {
		t.Error("New(Hypercube,12) succeeded for non power of two")
	}
	if _, err := New(Kind(42), 4); err == nil {
		t.Error("New(Kind(42)) succeeded")
	}
	if _, err := NewMesh(2, 2, 5); err == nil {
		t.Error("NewMesh(2,2,5) accepted overflowing node count")
	}
	if _, err := NewCube(2, 2, 0, 1); err == nil {
		t.Error("NewCube with zero extent succeeded")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid input")
		}
	}()
	MustNew(Hypercube, 3)
}

func TestFCGStructure(t *testing.T) {
	g := MustNew(FCG, 6)
	if g.Dims() != 1 || g.Nodes() != 6 {
		t.Fatalf("dims=%d nodes=%d", g.Dims(), g.Nodes())
	}
	for v := 0; v < 6; v++ {
		if d := g.Degree(v); d != 5 {
			t.Errorf("FCG degree(%d) = %d, want 5", v, d)
		}
	}
	// Paper: FCG over N nodes has N*(N-1) directed edges.
	if e := TotalEdges(g); e != 30 {
		t.Errorf("TotalEdges = %d, want 30", e)
	}
	if g.NextHop(2, 5) != 5 {
		t.Errorf("FCG NextHop not direct")
	}
	if g.MaxHops() != 1 {
		t.Errorf("FCG MaxHops = %d, want 1", g.MaxHops())
	}
}

func TestMFCG3x3MatchesPaperFigure3a(t *testing.T) {
	// Figure 3(a): 3x3 MFCG, node 0 connected to row {1,2} and column {3,6}.
	g := MustNew(MFCG, 9)
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2, 3, 6}) {
		t.Errorf("Neighbors(0) = %v, want [1 2 3 6]", got)
	}
	if got := g.Neighbors(4); !reflect.DeepEqual(got, []int{1, 3, 5, 7}) {
		t.Errorf("Neighbors(4) = %v, want [1 3 5 7]", got)
	}
	// (X-1)+(Y-1) outgoing edges per node.
	for v := 0; v < 9; v++ {
		if d := g.Degree(v); d != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, d)
		}
	}
	// Node 4 = (1,1) in a 3x3 mesh.
	if c := g.Coord(4); !reflect.DeepEqual(c, []int{1, 1}) {
		t.Errorf("Coord(4) = %v, want [1 1]", c)
	}
	if g.NodeAt([]int{1, 1}) != 4 {
		t.Errorf("NodeAt([1 1]) != 4")
	}
}

func TestCFCG27MatchesPaperFigure3b(t *testing.T) {
	g := MustNew(CFCG, 27)
	// 3x3x3 cube: (X-1)+(Y-1)+(Z-1) = 6 outgoing edges per node.
	for v := 0; v < 27; v++ {
		if d := g.Degree(v); d != 6 {
			t.Errorf("degree(%d) = %d, want 6", v, d)
		}
	}
	// Node 13 is the center (1,1,1).
	if c := g.Coord(13); !reflect.DeepEqual(c, []int{1, 1, 1}) {
		t.Errorf("Coord(13) = %v", c)
	}
	if g.MaxHops() != 3 {
		t.Errorf("MaxHops = %d, want 3", g.MaxHops())
	}
}

func TestHypercube16MatchesPaperFigure3c(t *testing.T) {
	g := MustNew(Hypercube, 16)
	// Each node connects to log2(16) = 4 nodes.
	for v := 0; v < 16; v++ {
		if d := g.Degree(v); d != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, d)
		}
	}
	// Neighbors of 0 are the single-bit nodes.
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Errorf("Neighbors(0) = %v, want [1 2 4 8]", got)
	}
	if g.Dims() != 4 {
		t.Errorf("Dims = %d, want 4", g.Dims())
	}
}

func TestHypercubeSingleNode(t *testing.T) {
	g := MustNew(Hypercube, 1)
	if g.Nodes() != 1 || g.Degree(0) != 0 {
		t.Errorf("singleton hypercube: nodes=%d degree=%d", g.Nodes(), g.Degree(0))
	}
}

func TestConnectedSymmetricIrreflexive(t *testing.T) {
	for _, kind := range Kinds {
		n := 16
		g := MustNew(kind, n)
		for a := 0; a < n; a++ {
			if g.Connected(a, a) {
				t.Errorf("%v: Connected(%d,%d) = true", kind, a, a)
			}
			for b := 0; b < n; b++ {
				if g.Connected(a, b) != g.Connected(b, a) {
					t.Errorf("%v: asymmetric connectivity %d,%d", kind, a, b)
				}
			}
		}
	}
}

// TestNeighborsMatchConnected pins the arithmetic neighbour walk against
// Connected on every node of every family at every valid n up to 300,
// and on partial explicit shapes, whose ragged top hyperplanes are where the
// walk's early exit matters: Neighbors(v) and AppendNeighbors(prefix, v) must
// list exactly the u with Connected(v, u), ascending, and Degree(v) must
// equal the count.
func TestNeighborsMatchConnected(t *testing.T) {
	var topos []Topology
	for n := 1; n <= 300; n++ {
		for _, kind := range AllKinds {
			if g, err := New(kind, n); err == nil {
				topos = append(topos, g)
			}
		}
	}
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			for n := 1; n <= x*y; n++ {
				topos = append(topos, mustTopo(NewMesh(x, y, n)))
			}
		}
	}
	for _, s := range [][3]int{{2, 2, 2}, {3, 3, 3}, {4, 2, 3}, {2, 5, 2}, {1, 3, 4}} {
		for n := 1; n <= s[0]*s[1]*s[2]; n++ {
			topos = append(topos, mustTopo(NewCube(s[0], s[1], s[2], n)))
		}
	}
	for n := 1; n <= 24; n++ {
		topos = append(topos, mustTopo(NewHyperX([]int{3, 1, 4, 2}, n)))
	}
	prefix := []int{-7, -8}
	for _, g := range topos {
		for v := 0; v < g.Nodes(); v++ {
			var want []int
			for u := 0; u < g.Nodes(); u++ {
				if g.Connected(v, u) {
					want = append(want, u)
				}
			}
			if got := g.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("%v: Neighbors(%d) = %v, want %v", g, v, got, want)
			}
			if got := g.AppendNeighbors(slices.Clip(prefix), v); !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
				t.Fatalf("%v: AppendNeighbors(%v, %d) = %v, want the prefix then %v", g, prefix, v, got, want)
			}
			if d := g.Degree(v); d != len(want) {
				t.Fatalf("%v: Degree(%d) = %d, want %d", g, v, d, len(want))
			}
		}
	}
}

func mustTopo(g Topology, err error) Topology {
	if err != nil {
		panic(err)
	}
	return g
}

func TestDegreeScalingOrders(t *testing.T) {
	// Paper Section III: buffers scale O(N), O(sqrt N), O(cbrt N), O(log2 N).
	n := 4096
	degs := map[Kind]int{}
	for _, kind := range Kinds {
		degs[kind] = MustNew(kind, n).Degree(0)
	}
	if degs[FCG] != n-1 {
		t.Errorf("FCG degree = %d, want %d", degs[FCG], n-1)
	}
	if want := 2 * (64 - 1); degs[MFCG] != want {
		t.Errorf("MFCG degree = %d, want %d", degs[MFCG], want)
	}
	if want := 3 * (16 - 1); degs[CFCG] != want {
		t.Errorf("CFCG degree = %d, want %d", degs[CFCG], want)
	}
	if degs[Hypercube] != 12 {
		t.Errorf("Hypercube degree = %d, want 12", degs[Hypercube])
	}
	if !(degs[FCG] > degs[MFCG] && degs[MFCG] > degs[CFCG] && degs[CFCG] > degs[Hypercube]) {
		t.Errorf("degree ordering violated: %v", degs)
	}
}

func TestRouteTerminatesWithinBound(t *testing.T) {
	for _, kind := range Kinds {
		for _, n := range []int{16, 64} {
			g := MustNew(kind, n)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					r := Route(g, src, dst)
					if r[0] != src || r[len(r)-1] != dst {
						t.Fatalf("%v: bad route endpoints %v", g, r)
					}
					if h := len(r) - 1; h > g.MaxHops() {
						t.Fatalf("%v: route %d->%d used %d hops > bound %d", g, src, dst, h, g.MaxHops())
					}
					for i := 0; i+1 < len(r); i++ {
						if !g.Connected(r[i], r[i+1]) {
							t.Fatalf("%v: route %v uses non-edge %d->%d", g, r, r[i], r[i+1])
						}
					}
				}
			}
		}
	}
}

func TestLDFMonotoneDimensionOrderOnFullGrids(t *testing.T) {
	// Algorithm 1: on fully populated topologies the corrected dimension
	// index strictly increases along every route.
	for _, tc := range []struct {
		kind Kind
		n    int
	}{{MFCG, 16}, {MFCG, 64}, {CFCG, 27}, {CFCG, 64}, {Hypercube, 32}} {
		g := MustNew(tc.kind, tc.n)
		for src := 0; src < tc.n; src++ {
			for dst := 0; dst < tc.n; dst++ {
				r := Route(g, src, dst)
				last := -1
				for i := 0; i+1 < len(r); i++ {
					a, b := g.Coord(r[i]), g.Coord(r[i+1])
					dim := -1
					for d := range a {
						if a[d] != b[d] {
							dim = d
						}
					}
					if dim <= last {
						t.Fatalf("%v: route %v corrects dim %d after dim %d", g, r, dim, last)
					}
					last = dim
				}
			}
		}
	}
}

func TestRouteSelfIsTrivial(t *testing.T) {
	g := MustNew(MFCG, 9)
	if r := Route(g, 4, 4); !reflect.DeepEqual(r, []int{4}) {
		t.Errorf("Route(4,4) = %v", r)
	}
	if g.NextHop(4, 4) != 4 {
		t.Errorf("NextHop(4,4) != 4")
	}
}

func TestPartiallyPopulatedMeshAnyN(t *testing.T) {
	// Section IV-B: MFCG must work on any number of nodes, including primes.
	for n := 1; n <= 150; n++ {
		g, err := New(MFCG, n)
		if err != nil {
			t.Fatalf("New(MFCG,%d): %v", n, err)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				r := Route(g, src, dst)
				if len(r)-1 > g.MaxHops() {
					t.Fatalf("n=%d: route %d->%d too long: %v", n, src, dst, r)
				}
			}
		}
	}
}

func TestPartiallyPopulatedCubeAnyN(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 11, 13, 17, 23, 26, 29, 31, 37, 50, 63, 65, 97, 101, 127} {
		g, err := New(CFCG, n)
		if err != nil {
			t.Fatalf("New(CFCG,%d): %v", n, err)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				Route(g, src, dst) // panics if stuck or too long
			}
		}
	}
}

func TestLowestDimensionFirstPopulation(t *testing.T) {
	// Nodes must fill the lowest dimensions first: in a partial 3x3 mesh
	// with 7 nodes, rows 0 and 1 are full and row 2 holds node 6 only.
	g, err := NewMesh(3, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Coord(6); !reflect.DeepEqual(c, []int{0, 2}) {
		t.Errorf("Coord(6) = %v, want [0 2]", c)
	}
	if g.NodeAt([]int{1, 2}) != -1 {
		t.Errorf("unpopulated slot (1,2) resolved to a node")
	}
	// Degree of node 6: row partner none (row 2 has only itself), column
	// partners 0 and 3.
	if got := g.Neighbors(6); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("Neighbors(6) = %v, want [0 3]", got)
	}
}

func TestExtendedLDFAvoidsUnpopulatedHop(t *testing.T) {
	// 3x3 mesh with 7 nodes. src=6=(0,2) in the partial top row,
	// dst=2=(2,0). Plain LDF would hop to (2,2)=8 which does not exist;
	// extended LDF must correct dim 1 first: 6 -> (0,0)=0 -> 2.
	g, err := NewMesh(3, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hop := g.NextHop(6, 2); hop != 0 {
		t.Errorf("NextHop(6,2) = %d, want 0", hop)
	}
	if r := Route(g, 6, 2); !reflect.DeepEqual(r, []int{6, 0, 2}) {
		t.Errorf("Route(6,2) = %v, want [6 0 2]", r)
	}
}

func TestNodeAtRejectsBadCoords(t *testing.T) {
	g := MustNew(MFCG, 9)
	for _, c := range [][]int{{-1, 0}, {3, 0}, {0, 3}, {0}, {0, 0, 0}} {
		if id := g.NodeAt(c); id != -1 {
			t.Errorf("NodeAt(%v) = %d, want -1", c, id)
		}
	}
}

func TestCheckNodePanics(t *testing.T) {
	g := MustNew(FCG, 4)
	for _, fn := range map[string]func(){
		"Coord":     func() { g.Coord(4) },
		"Neighbors": func() { g.Neighbors(-1) },
		"NextHop":   func() { g.NextHop(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range node did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestStringDescriptions(t *testing.T) {
	cases := []struct {
		top  Topology
		want string
	}{
		{MustNew(FCG, 6), "FCG 6 (6 nodes)"},
		{MustNew(MFCG, 9), "MFCG 3x3 (9 nodes)"},
		{MustNew(CFCG, 27), "CFCG 3x3x3 (27 nodes)"},
		{MustNew(Hypercube, 8), "Hypercube 2x2x2 (8 nodes)"},
	}
	for _, c := range cases {
		if got := c.top.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	g, _ := NewMesh(3, 3, 7)
	if got := g.String(); got != "MFCG 3x3 (7 nodes, partial)" {
		t.Errorf("partial String() = %q", got)
	}
}

func TestShapeReturnsCopy(t *testing.T) {
	g := MustNew(MFCG, 9)
	s := g.Shape()
	s[0] = 99
	if g.Shape()[0] == 99 {
		t.Error("Shape() exposed internal slice")
	}
}

// Property: routes are valid for random topology kind, size, src, dst.
func TestPropertyRoutesValid(t *testing.T) {
	f := func(kindSeed uint8, nSeed uint16, a, b uint16) bool {
		kind := Kinds[int(kindSeed)%len(Kinds)]
		n := 1 + int(nSeed)%200
		if kind == Hypercube {
			// Round down to a power of two.
			p := 1
			for p*2 <= n {
				p *= 2
			}
			n = p
		}
		g := MustNew(kind, n)
		src, dst := int(a)%n, int(b)%n
		r := Route(g, src, dst)
		if r[0] != src || r[len(r)-1] != dst || len(r)-1 > g.MaxHops() {
			return false
		}
		for i := 0; i+1 < len(r); i++ {
			if !g.Connected(r[i], r[i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: Coord/NodeAt are inverse bijections over populated nodes.
func TestPropertyCoordRoundTrip(t *testing.T) {
	f := func(kindSeed uint8, nSeed uint16) bool {
		kind := Kinds[int(kindSeed)%len(Kinds)]
		n := 1 + int(nSeed)%128
		if kind == Hypercube {
			p := 1
			for p*2 <= n {
				p *= 2
			}
			n = p
		}
		g := MustNew(kind, n)
		for v := 0; v < n; v++ {
			if g.NodeAt(g.Coord(v)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNextHop(b *testing.B) {
	for _, kind := range Kinds {
		g := MustNew(kind, 1024)
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.NextHop(i%1024, (i*7+13)%1024)
			}
		})
	}
}

// BenchmarkHopAvoiding times the armed forwarding path: Hop around two dead
// nodes on MFCG 512, the detour a runtime takes after a crash.
func BenchmarkHopAvoiding(b *testing.B) {
	g := MustNew(MFCG, 512)
	down := func(node int) bool { return node%256 == 7 } // 7 and 263
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Hop(i%512, (i*7+13)%512, down)
	}
}

// BenchmarkNeighbors times the neighbour walk a runtime makes on each node's
// first edge use, over every node: each node's AppendNeighbors into one
// reused buffer.
func BenchmarkNeighbors(b *testing.B) {
	for _, c := range []struct {
		kind Kind
		n    int
	}{{Hypercube, 65536}, {FCG, 256}} {
		g := MustNew(c.kind, c.n)
		b.Run(fmt.Sprintf("%v%d", c.kind, c.n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []int
			for i := 0; i < b.N; i++ {
				for v := 0; v < c.n; v++ {
					buf = g.AppendNeighbors(buf[:0], v)
				}
			}
		})
	}
}

func BenchmarkRoute(b *testing.B) {
	for _, kind := range Kinds {
		g := MustNew(kind, 1024)
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Route(g, i%1024, (i*7+13)%1024)
			}
		})
	}
}

func ExampleRoute() {
	g := MustNew(MFCG, 9)
	fmt.Println(Route(g, 8, 0))
	// Output: [8 6 0]
}
