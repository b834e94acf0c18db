package fabric

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"armcivt/internal/faults"
	"armcivt/internal/sim"
)

// Reference routes: dimension-order routing written out as a materialized
// list of link indices. The fabric's path-free walk (aim, nextHop, advance)
// must visit exactly these links.

// route appends to buf the sequence of (node, dim, dir) link indices from
// src to dst under dimension-order torus routing, recomputing the shorter
// ring arc before every hop.
func (nw *Network) route(src, dst int, buf []int) []int {
	if src == dst {
		return buf
	}
	out := buf
	cur := nw.Coord(src)
	tgt := nw.Coord(dst)
	strides := [3]int{1, nw.shape[0], nw.shape[0] * nw.shape[1]}
	node := src
	for d := 0; d < 3; d++ {
		for cur[d] != tgt[d] {
			fwd := (tgt[d] - cur[d] + nw.shape[d]) % nw.shape[d]
			bwd := nw.shape[d] - fwd
			dir := 1 // plus
			if bwd < fwd {
				dir = 0
			}
			out = append(out, node*6+d*2+dir)
			if dir == 1 {
				cur[d] = (cur[d] + 1) % nw.shape[d]
			} else {
				cur[d] = (cur[d] - 1 + nw.shape[d]) % nw.shape[d]
			}
			node = cur[0]*strides[0] + cur[1]*strides[1] + cur[2]*strides[2]
		}
	}
	return out
}

// routeFaultAware is route reacting to hard link failures: in each dimension
// it picks a ring arc once, preferring the shorter one but taking the long
// way round when only the short arc crosses a failed link, and counts the
// detour in src's Reroutes. With no active faults it returns route's path.
func (nw *Network) routeFaultAware(src, dst int, buf []int) []int {
	if src == dst {
		return buf
	}
	out := buf
	cur := nw.Coord(src)
	tgt := nw.Coord(dst)
	strides := [3]int{1, nw.shape[0], nw.shape[0] * nw.shape[1]}
	node := src
	for d := 0; d < 3; d++ {
		if cur[d] == tgt[d] {
			continue
		}
		fwd := (tgt[d] - cur[d] + nw.shape[d]) % nw.shape[d]
		bwd := nw.shape[d] - fwd
		dir, dist := 1, fwd
		if bwd < fwd {
			dir, dist = 0, bwd
		}
		if nw.arcBlocked(node, d, dir, dist) {
			altDir, altDist := 1-dir, nw.shape[d]-dist
			if altDist > 0 && !nw.arcBlocked(node, d, altDir, altDist) {
				dir, dist = altDir, altDist
				nw.at(src).stats.Reroutes++
			}
		}
		for s := 0; s < dist; s++ {
			out = append(out, node*6+d*2+dir)
			if dir == 1 {
				cur[d] = (cur[d] + 1) % nw.shape[d]
			} else {
				cur[d] = (cur[d] - 1 + nw.shape[d]) % nw.shape[d]
			}
			node = cur[0]*strides[0] + cur[1]*strides[1] + cur[2]*strides[2]
		}
	}
	return out
}

// linkEnds returns the torus positions joined by directed link idx.
func (nw *Network) linkEnds(idx int) (from, to int) {
	from = idx / 6
	d := (idx % 6) / 2
	c := nw.Coord(from)
	if idx%2 == 1 {
		c[d] = (c[d] + 1) % nw.shape[d]
	} else {
		c[d] = (c[d] - 1 + nw.shape[d]) % nw.shape[d]
	}
	to = c[0] + c[1]*nw.shape[0] + c[2]*nw.shape[0]*nw.shape[1]
	return from, to
}

// walk aims a message from src to dst and steps it to its destination the
// way the engine-driven step does, returning the links it crossed. Each
// link's ends must agree with the position the walk was at and reached.
func walk(t *testing.T, nw *Network, src, dst int) []int {
	t.Helper()
	m := &msg{src: int32(src), dst: int32(dst)}
	nw.aim(m)
	var links []int
	for {
		li, d, to, ok := nw.nextHop(m)
		if !ok {
			break
		}
		if from, end := nw.linkEnds(li); from != int(m.pos) || end != to {
			t.Fatalf("walk %d->%d: link %d joins %d->%d, walk says %d->%d", src, dst, li, from, end, m.pos, to)
		}
		links = append(links, li)
		nw.advance(m, d, to)
		if len(links) > nw.Capacity()*3 {
			t.Fatalf("walk %d->%d does not terminate", src, dst)
		}
	}
	if int(m.pos) != dst {
		t.Fatalf("walk %d->%d ended at %d", src, dst, m.pos)
	}
	return links
}

func equalLinks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzTorusWalk checks the path-free walk against the reference routes over
// random torus shapes (extents 1 to 5, so single-node and two-node rings and
// even rings, where the two arcs tie, all occur), random endpoints, and a
// random set of hard-down links active at injection time. Every byte past
// the first five picks one link to fail.
func FuzzTorusWalk(f *testing.F) {
	f.Add([]byte{3, 3, 3, 0, 26})
	f.Add([]byte{4, 1, 1, 0, 1, 0})
	f.Add([]byte{1, 2, 4, 3, 4, 5, 9, 200})
	f.Add([]byte{5, 4, 2, 7, 33, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		shape := [3]int{int(in[0])%5 + 1, int(in[1])%5 + 1, int(in[2])%5 + 1}
		n := shape[0] * shape[1] * shape[2]
		src, dst := int(in[3])%n, int(in[4])%n
		var down []faults.Fault
		for _, b := range in[5:] {
			a, to := (&Network{shape: shape}).linkEnds(int(b) % (n * 6))
			if a != to {
				down = append(down, faults.Fault{Kind: faults.LinkFail, A: a, B: to})
			}
		}
		e := sim.New()
		inj := faults.NewInjector(e, n, &faults.Spec{Faults: down})
		if err := e.Run(); err != nil { // activate the t=0 failures
			t.Fatal(err)
		}
		plain := New(e, n, Config{Shape: shape})
		if src != dst {
			if got, want := walk(t, plain, src, dst), plain.route(src, dst, nil); !equalLinks(got, want) {
				t.Fatalf("shape %v %d->%d fault-free: walk %v, reference %v", shape, src, dst, got, want)
			}
		}
		faulted := New(e, n, Config{Shape: shape, Faults: inj})
		ref := New(e, n, Config{Shape: shape, Faults: inj})
		if src != dst {
			if got, want := walk(t, faulted, src, dst), ref.routeFaultAware(src, dst, nil); !equalLinks(got, want) {
				t.Fatalf("shape %v %d->%d down %v: walk %v, reference %v", shape, src, dst, down, got, want)
			}
		}
		if got, want := faulted.Stats().Reroutes, ref.Stats().Reroutes; got != want {
			t.Fatalf("shape %v %d->%d down %v: %d reroutes, reference %d", shape, src, dst, down, got, want)
		}
	})
}

// TestWalkMatchesRouteEverywhere is the exhaustive small-shape counterpart
// of FuzzTorusWalk without faults: every source/destination pair of a few
// shapes, including degenerate and even extents.
func TestWalkMatchesRouteEverywhere(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {4, 1, 3}, {3, 4, 5}} {
		n := shape[0] * shape[1] * shape[2]
		_, nw := netFor(t, n, Config{Shape: shape})
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if got, want := walk(t, nw, a, b), nw.route(a, b, nil); !equalLinks(got, want) {
					t.Fatalf("shape %v %d->%d: walk %v, reference %v", shape, a, b, got, want)
				}
			}
		}
	}
}

// TestMsgSizeMatchesBudget is the documentation-drift check for the `msg`
// and `position` rows of docs/SCALING.md's byte budget: each must state
// its record's actual size on a 64-bit platform.
func TestMsgSizeMatchesBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the byte budget is stated for 64-bit platforms")
	}
	doc, err := os.ReadFile("../../docs/SCALING.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		size uintptr
	}{
		{"msg", unsafe.Sizeof(msg{})},
		{"position", unsafe.Sizeof(position{})},
	} {
		if want := fmt.Sprintf("| `%s` | %d B |", row.name, row.size); !strings.Contains(string(doc), want) {
			t.Errorf("docs/SCALING.md byte budget is stale for %s: expected the row %q (actual size %d bytes)", row.name, want, row.size)
		}
	}
}

// TestMsgSizeIsPinned holds the in-flight message record at its measured
// size: app_dft's end-of-iteration get burst keeps about 20 000 messages in
// flight at once per runtime, and int32 node ids and positions took the
// record from 112 to 96 B (TestProtocolRecordSizesArePinned in
// internal/armci pins the protocol records the same burst holds). Growing it
// needs a fresh app_dft peak_rss_mb measurement.
func TestMsgSizeIsPinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(msg{}); got != 96 {
		t.Fatalf("msg is %d B, pinned at 96 B: re-measure app_dft peak_rss_mb before moving it", got)
	}
}
