package core

import "fmt"

// Advisor encodes the paper's conclusions as a topology-selection heuristic:
// given the job size and per-node memory budget for communication buffers,
// and how hot-spot-prone the workload is, pick the topology the evaluation
// recommends.

// Workload characterizes an application's communication behaviour for
// Recommend.
type Workload int

const (
	// Neighborly workloads (NAS LU-like) exchange with a fixed small peer
	// set and rarely create hot spots.
	Neighborly Workload = iota
	// Dynamic workloads (NWChem DFT-like) use shared counters and
	// concentrated accumulates that produce hot spots at scale.
	Dynamic
	// Bulk workloads (CCSD-like) move large blocks uniformly; latency per
	// hop matters more than fan-in.
	Bulk
)

// Advice is the outcome of Recommend.
type Advice struct {
	Kind Kind
	// Spec is the full parameterized recommendation — Spec.Kind == Kind,
	// plus the chosen shape (HyperX) or group parameters (Dragonfly) when
	// the advisor searched beyond the paper's default shapes.
	Spec Spec
	// BufferBytesPerNode is the communication-buffer footprint per node
	// under the recommendation, sized by its maximum-degree node.
	BufferBytesPerNode int64
	// MaxHops bounds route length (in edges) under the recommendation.
	MaxHops int
	// Reason explains the choice in the paper's terms.
	Reason string
}

// NodeBufferBytes returns node's request-buffer footprint in t in bytes —
// degree * ppn * bufsPerProc * bufSize, the topology-dependent memory term
// Figure 5 plots: a pool of bufsPerProc buffers of bufSize bytes for every
// process on each of the node's buffer edges.
func NodeBufferBytes(t Topology, node, ppn, bufsPerProc, bufSize int) int64 {
	return int64(t.Degree(node)) * int64(ppn) * int64(bufsPerProc) * int64(bufSize)
}

// BufferBytes returns NodeBufferBytes of node 0 for a topology kind over n
// nodes. Node 0 is a maximum-degree node of the grid families (the fully
// populated corner) but not of Dragonfly, whose hub routers exceed it (at
// 128 nodes, 22 edges against node 0's 7); footprint math for arbitrary
// specs uses MaxDegreeNode.
func BufferBytes(kind Kind, n, ppn, bufsPerProc, bufSize int) (int64, error) {
	t, err := New(kind, n)
	if err != nil {
		return 0, err
	}
	return NodeBufferBytes(t, 0, ppn, bufsPerProc, bufSize), nil
}

// MaxDegree returns the maximum buffer out-degree over all nodes.
func MaxDegree(t Topology) int { return t.Degree(MaxDegreeNode(t)) }

// MaxDegreeNode returns the first node of maximum buffer out-degree. For
// the grid family it is node 0 (the fully populated corner), but
// Dragonfly's hub routers exceed node 0, so it scans.
func MaxDegreeNode(t Topology) int {
	best, max := 0, -1
	for v := 0; v < t.Nodes(); v++ {
		if d := t.Degree(v); d > max {
			best, max = v, d
		}
	}
	return best
}

// Recommend picks a virtual topology — and its shape — for n nodes x ppn
// processes given a per-node communication-memory budget (bytes; 0 means
// unlimited) and the workload class. It follows Section VIII of the paper
// first (MFCG is the best balance; FCG only when memory allows and no
// hot-spots are expected; higher dimensions under growing memory pressure),
// then, when no paper topology fits, walks the generalized HyperX/Dragonfly
// frontier: candidate shapes ordered by max-hops, cheapest route bound whose
// buffer pool fits the budget wins.
func Recommend(n, ppn int, memBudget int64, w Workload, bufsPerProc, bufSize int) Advice {
	classic := func(kind Kind, b int64, reason string) Advice {
		a := Advice{Kind: kind, Spec: Spec{Kind: kind}, BufferBytesPerNode: b, Reason: reason}
		if t, err := New(kind, n); err == nil {
			a.MaxHops = t.MaxHops()
		}
		return a
	}
	fits := func(kind Kind) (int64, bool) {
		b, err := BufferBytes(kind, n, ppn, bufsPerProc, bufSize)
		if err != nil {
			return 0, false
		}
		return b, memBudget <= 0 || b <= memBudget
	}
	// Bulk or neighborly workloads with room for FCG: the flat graph's
	// single hop wins (Figs 6a, 8, 9b).
	if w != Dynamic {
		if b, ok := fits(FCG); ok {
			return classic(FCG, b,
				"no hot-spots expected and FCG's buffers fit: one-hop latency wins")
		}
	}
	// The paper's headline recommendation.
	if b, ok := fits(MFCG); ok {
		reason := "MFCG balances O(sqrt N) buffer memory, a single forwarding step, and hot-spot attenuation"
		if w == Dynamic {
			reason = "hot-spot-prone workload: MFCG attenuates contention (up to 48% faster NWChem DFT in the paper)"
		}
		return classic(MFCG, b, reason)
	}
	if b, ok := fits(CFCG); ok {
		return classic(CFCG, b,
			"memory budget excludes MFCG: CFCG's O(cbrt N) buffers fit at two forwarding steps")
	}
	if b, ok := fits(Hypercube); ok {
		return classic(Hypercube, b,
			"extreme memory pressure: hypercube minimizes buffers at the cost of log2(N)-1 forwards")
	}
	// No paper topology fits: search the generalized family frontier —
	// Dragonfly (3 hops) then HyperX flats of increasing dimension — for the
	// lowest hop bound whose buffer pool fits.
	if a, ok := recommendFrontier(n, ppn, memBudget, bufsPerProc, bufSize); ok {
		return a
	}
	// Nothing fits anywhere: recommend CFCG as the smallest
	// always-constructible paper footprint.
	b, _ := BufferBytes(CFCG, n, ppn, bufsPerProc, bufSize)
	return classic(CFCG, b,
		"budget below every topology's footprint: CFCG is the smallest that supports any node count")
}

// frontierSpecs enumerates the generalized candidates for n nodes in
// max-hops order: the default Dragonfly factoring (3 hops), then
// near-balanced HyperX flats of dimension 4, 5, ... until the extents
// bottom out at 2 (the 2-ary flat is degree-equivalent to a hypercube, so
// deeper shapes cannot shrink the pool further).
func frontierSpecs(n int) []Spec {
	g, a := DragonflyShape(n)
	specs := []Spec{{Kind: Dragonfly, Groups: g, RoutersPerGroup: a, GlobalPerRouter: 1}}
	for k := 4; ; k++ {
		shape := FlatShape(n, k)
		specs = append(specs, Spec{Kind: HyperX, Shape: shape})
		if shape[0] <= 2 {
			break
		}
	}
	return specs
}

// recommendFrontier evaluates the generalized candidates in max-hops order
// and returns the first whose footprint fits the budget.
func recommendFrontier(n, ppn int, memBudget int64, bufsPerProc, bufSize int) (Advice, bool) {
	if memBudget <= 0 {
		return Advice{}, false
	}
	for _, spec := range frontierSpecs(n) {
		t, err := spec.Build(n)
		if err != nil {
			continue
		}
		b := NodeBufferBytes(t, MaxDegreeNode(t), ppn, bufsPerProc, bufSize)
		if b > memBudget {
			continue
		}
		reason := fmt.Sprintf(
			"no paper topology fits the budget: %v trades up to %d forwarding steps for a smaller buffer pool",
			t, t.MaxHops()-1)
		return Advice{Kind: spec.Kind, Spec: spec, BufferBytesPerNode: b,
			MaxHops: t.MaxHops(), Reason: reason}, true
	}
	return Advice{}, false
}

// Evaluate reports the Advice for one explicit spec instead of searching:
// its footprint, hop bound, and whether it fits the budget (noted in
// Reason). Used when the caller pins the topology and only wants the
// numbers.
func Evaluate(spec Spec, n, ppn int, memBudget int64, bufsPerProc, bufSize int) (Advice, error) {
	t, err := spec.Build(n)
	if err != nil {
		return Advice{}, err
	}
	b := NodeBufferBytes(t, MaxDegreeNode(t), ppn, bufsPerProc, bufSize)
	reason := fmt.Sprintf("requested spec %v: fits the budget", t)
	if memBudget > 0 && b > memBudget {
		reason = fmt.Sprintf("requested spec %v: footprint exceeds the budget by %d bytes", t, b-memBudget)
	}
	return Advice{Kind: spec.Kind, Spec: spec, BufferBytesPerNode: b,
		MaxHops: t.MaxHops(), Reason: reason}, nil
}
