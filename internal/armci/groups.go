package armci

import (
	"fmt"

	"armcivt/internal/sim"
)

// Group is a processor group in the Global Arrays pgroup style: an ordered
// subset of ranks with its own barrier and collectives. NWChem and friends
// use groups to run independent sub-calculations inside one job.
//
// Groups are registered before Runtime.Run via NewGroup; group collectives
// follow the same SPMD contract as world collectives, restricted to
// members.
type Group struct {
	rt      *Runtime
	name    string
	members []int
	index   map[int]int // rank -> position in members

	arrived int
	ev      *sim.Event
}

// NewGroup registers a processor group over the given ranks (order defines
// group rank). Ranks must be distinct and in range.
func (rt *Runtime) NewGroup(name string, ranks []int) *Group {
	if len(ranks) == 0 {
		panic(fmt.Sprintf("armci: group %q needs at least one rank", name))
	}
	g := &Group{
		rt:      rt,
		name:    name,
		members: append([]int(nil), ranks...),
		index:   make(map[int]int, len(ranks)),
		ev:      sim.NewEvent(rt.eng, "group "+name),
	}
	for i, r := range ranks {
		if r < 0 || r >= len(rt.ranks) {
			panic(fmt.Sprintf("armci: group %q rank %d out of range", name, r))
		}
		if _, dup := g.index[r]; dup {
			panic(fmt.Sprintf("armci: group %q lists rank %d twice", name, r))
		}
		g.index[r] = i
	}
	return g
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Size returns the member count.
func (g *Group) Size() int { return len(g.members) }

// Members returns the member ranks in group order.
func (g *Group) Members() []int { return append([]int(nil), g.members...) }

// Contains reports whether rank belongs to the group.
func (g *Group) Contains(rank int) bool { _, ok := g.index[rank]; return ok }

// GroupRank returns r's position within the group, or -1 if not a member.
func (g *Group) GroupRank(r *Rank) int {
	if i, ok := g.index[r.Rank()]; ok {
		return i
	}
	return -1
}

// mustMember panics if r is not in g.
func (g *Group) mustMember(r *Rank) int {
	i, ok := g.index[r.Rank()]
	if !ok {
		panic(fmt.Sprintf("armci: rank %d is not a member of group %q", r.Rank(), g.name))
	}
	return i
}

// GroupBarrier synchronizes the group's members (only members may call).
func (r *Rank) GroupBarrier(g *Group) {
	g.mustMember(r)
	g.arrived++
	if g.arrived == len(g.members) {
		g.arrived = 0
		ev := g.ev
		g.ev = sim.NewEvent(r.rt.eng, "group "+g.name)
		ev.Fire()
	} else {
		ev := g.ev
		ev.Wait(r.proc)
	}
	steps := 0
	for 1<<steps < len(g.members) {
		steps++
	}
	r.proc.Sleep(sim.Time(steps) * r.rt.cfg.BarrierStep)
}

// GroupBcast broadcasts data from the member with group rank rootIdx to all
// members, returning the payload everywhere.
func (r *Rank) GroupBcast(g *Group, rootIdx int, data []byte) []byte {
	g.mustMember(r)
	if rootIdx < 0 || rootIdx >= len(g.members) {
		panic(fmt.Sprintf("armci: GroupBcast root index %d out of range for %q", rootIdx, g.name))
	}
	out := r.bcastOver(g.members, rootIdx, data)
	r.GroupBarrier(g)
	return out
}

// GroupReduceSum reduces vals elementwise to the member with group rank
// rootIdx (valid there).
func (r *Rank) GroupReduceSum(g *Group, rootIdx int, vals []float64) []float64 {
	g.mustMember(r)
	if rootIdx < 0 || rootIdx >= len(g.members) {
		panic(fmt.Sprintf("armci: GroupReduce root index %d out of range for %q", rootIdx, g.name))
	}
	out := r.reduceOver(g.members, rootIdx, vals, sumOp)
	r.GroupBarrier(g)
	return out
}

// GroupAllreduceSum returns the group-wide elementwise sum on every member.
func (r *Rank) GroupAllreduceSum(g *Group, vals []float64) []float64 {
	g.mustMember(r)
	red := r.reduceOver(g.members, 0, vals, sumOp)
	r.GroupBarrier(g)
	var payload []byte
	if g.index[r.Rank()] == 0 {
		payload = Float64sToBytes(red)
	}
	out := r.bcastOver(g.members, 0, payload)
	r.GroupBarrier(g)
	return BytesToFloat64s(out)
}
