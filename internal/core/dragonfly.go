package core

import "fmt"

// dragonfly is the Dragonfly virtual topology: g groups of a routers each,
// every group internally fully connected, groups joined by aligned global
// links (a link connects the same router index in both groups). Node
// id = group*a + idx; virtual coordinates are [idx, group], lowest
// dimension first, so Dims() = 2 and Shape() = [a, g].
//
// Global links come in two layers:
//
//   - The hub rail: router a-1 of every group ("the hub") holds one link to
//     every other group. It guarantees a route always exists and serves as
//     the escape path of the ordering discipline below.
//   - Spread links: for every unordered group pair {B, C}, `spread` links
//     land pair-hashed on router indices (B+C+t) mod (a-1), t < spread, so
//     non-hub routers carry roughly GlobalPerRouter global links each and
//     traffic to low-indexed destinations need not climb to the hub.
//
// Routing is minimal dragonfly routing — group-local, global, group-local,
// at most 3 hops — under a peak ordering that makes it deadlock-free
// without virtual channels (which the buffer-pool model does not have):
// the local hop before a global link must ASCEND in router index, and the
// local hop after one must DESCEND (the landing router index is >= the
// destination index). Ascending-local, global and descending-local edges
// are disjoint classes, and every route's buffer dependencies point
// Lasc -> G -> Ldesc, so the buffer wait-for graph is a DAG for every
// (g, a, h) — unlike textbook minimal dragonfly routing, whose l-g-l
// dependencies cycle through the strongly connected group graph unless a
// second virtual channel breaks them. CheckDeadlockFree proves each shipped
// configuration computationally.
type dragonfly struct {
	groups  int // g
	routers int // a, routers per group; router a-1 is the group's hub
	global  int // h, nominal global links per non-hub router (as configured)
	spread  int // derived spread links per group pair on non-hub routers
	n       int // groups * routers
}

// NewDragonfly builds a Dragonfly over groups*routersPerGroup nodes.
// globalPerRouter (h) sizes the spread layer: each non-hub router carries
// roughly h global links in addition to the hub rail; 0 keeps the hub rail
// only (the minimal deadlock-free configuration).
func NewDragonfly(groups, routersPerGroup, globalPerRouter int) (Topology, error) {
	if groups < 1 || routersPerGroup < 1 {
		return nil, fmt.Errorf("core: dragonfly needs groups >= 1 and routers/group >= 1, got g=%d a=%d", groups, routersPerGroup)
	}
	if globalPerRouter < 0 {
		return nil, fmt.Errorf("core: dragonfly global links per router must be >= 0, got %d", globalPerRouter)
	}
	d := &dragonfly{
		groups:  groups,
		routers: routersPerGroup,
		global:  globalPerRouter,
		n:       groups * routersPerGroup,
	}
	if groups > 1 && routersPerGroup > 1 {
		// spread per unordered group pair, rounded so each of the a-1
		// non-hub routers carries about h global links in total.
		d.spread = (globalPerRouter*(routersPerGroup-1) + (groups-1)/2) / (groups - 1)
		if d.spread > routersPerGroup-1 {
			d.spread = routersPerGroup - 1
		}
	}
	return d, nil
}

func (d *dragonfly) Kind() Kind   { return Dragonfly }
func (d *dragonfly) Nodes() int   { return d.n }
func (d *dragonfly) Dims() int    { return 2 }
func (d *dragonfly) Shape() []int { return []int{d.routers, d.groups} }

func (d *dragonfly) String() string {
	return fmt.Sprintf("Dragonfly g=%d,a=%d,h=%d (%d nodes)", d.groups, d.routers, d.global, d.n)
}

func (d *dragonfly) checkNode(node int) {
	if node < 0 || node >= d.n {
		panic(fmt.Sprintf("core: node %d out of range [0,%d) on %v", node, d.n, d))
	}
}

func (d *dragonfly) Coord(node int) []int {
	d.checkNode(node)
	return []int{node % d.routers, node / d.routers}
}

func (d *dragonfly) NodeAt(coord []int) int {
	if len(coord) != 2 {
		return -1
	}
	idx, group := coord[0], coord[1]
	if idx < 0 || idx >= d.routers || group < 0 || group >= d.groups {
		return -1
	}
	return group*d.routers + idx
}

// hasGlobal reports whether router index idx hosts a global link between
// groups b and c (landing on the same index in the other group). Symmetric
// in b and c.
func (d *dragonfly) hasGlobal(b, c, idx int) bool {
	if b == c {
		return false
	}
	if idx == d.routers-1 {
		return true // hub rail
	}
	if d.spread == 0 {
		return false
	}
	m := d.routers - 1
	off := idx - (b+c)%m
	if off < 0 {
		off += m
	}
	return off < d.spread
}

func (d *dragonfly) Connected(a, b int) bool {
	d.checkNode(a)
	d.checkNode(b)
	if a == b {
		return false
	}
	ag, ai := a/d.routers, a%d.routers
	bg, bi := b/d.routers, b%d.routers
	if ag == bg {
		return true // groups are fully connected
	}
	return ai == bi && d.hasGlobal(ag, bg, ai)
}

func (d *dragonfly) Neighbors(node int) []int {
	return d.AppendNeighbors(make([]int, 0, d.Degree(node)), node)
}

// AppendNeighbors walks the groups in ascending order, so the peers come out
// sorted: the node's own group whole, one global peer from each other group
// it links to.
func (d *dragonfly) AppendNeighbors(dst []int, node int) []int {
	d.checkNode(node)
	g, i := node/d.routers, node%d.routers
	for c := 0; c < d.groups; c++ {
		if c == g {
			base := g * d.routers
			for j := 0; j < d.routers; j++ {
				if j != i {
					dst = append(dst, base+j)
				}
			}
		} else if d.hasGlobal(g, c, i) {
			dst = append(dst, c*d.routers+i)
		}
	}
	return dst
}

func (d *dragonfly) Degree(node int) int {
	d.checkNode(node)
	g, i := node/d.routers, node%d.routers
	deg := d.routers - 1
	for c := 0; c < d.groups; c++ {
		if c != g && d.hasGlobal(g, c, i) {
			deg++
		}
	}
	return deg
}

// NextHop routes minimally under the peak ordering: within the source group
// the route may only climb (ascending local hop to a gateway above the
// source index), the global hop lands on the aligned router of the
// destination group, and within the destination group it may only descend.
// A gateway is usable only when its index is also >= the destination index,
// so the arrival hop descends; the hub (index a-1) always qualifies.
func (d *dragonfly) NextHop(src, dst int) int {
	if hop, ok := d.Hop(src, dst, nil); ok {
		return hop
	}
	panic(fmt.Sprintf("core: dragonfly found no hop %d->%d on %v", src, dst, d))
}

// Hop's admissible hops keep the route inside the ascending/descending class
// discipline: src's own global link, then every usable gateway above it,
// lowest first. Inside a group the only admissible hop is dst: any detour
// would add a second local hop in the same class and break the ordering
// argument. Each gateway climbed past an avoided landing router adds one
// ascending local hop, so a route around k avoided nodes takes at most
// MaxHops + k hops.
func (d *dragonfly) Hop(src, dst int, avoid func(node int) bool) (int, bool) {
	d.checkNode(src)
	d.checkNode(dst)
	if src == dst {
		return src, true
	}
	sg, si := src/d.routers, src%d.routers
	tg, ti := dst/d.routers, dst%d.routers
	if sg == tg {
		return dst, true
	}
	if si >= ti && d.hasGlobal(sg, tg, si) { // take our own global link
		if hop := tg*d.routers + si; avoid == nil || hop == dst || !avoid(hop) {
			return hop, true
		}
	}
	for j := si + 1; j < d.routers; j++ {
		if j >= ti && d.hasGlobal(sg, tg, j) { // climb to the lowest usable gateway
			if hop := sg*d.routers + j; avoid == nil || !avoid(hop) {
				return hop, true
			}
		}
	}
	return -1, false
}

// MaxHops is 3: ascend to a gateway, cross the global link, descend to the
// destination.
func (d *dragonfly) MaxHops() int { return 3 }
