package core

// ReplacementHop elects a next hop from src toward dst that avoids every
// node the predicate down reports failed. It walks the admissible hops
// (AdmissibleHops order: lowest correctable dimension first), so every
// survivor that shares a view of the failed set elects the same
// replacement — a deterministic election with no extra protocol round.
// The destination itself is returned (reporting ok) when it is a live
// admissible hop; ok is false when dst is down or every admissible
// forwarder toward it has failed.
//
// Because each admissible hop corrects one whole dimension of the LDF
// route, a replacement never lengthens the path: the paper's D <= M hop
// bound holds through healing. Deadlock freedom does not follow from it. A
// replacement may correct a higher dimension before a lower one, which is
// the mixed order LDF forbids: on a 16-node Hypercube with nodes 0 and 7
// dead, the healed routes close the buffer-dependency cycle
// (3→2)(2→6)(6→4)(4→5)(5→1)(1→3). Whether healed routes can be made
// deadlock-free is ROADMAP item 2.
func ReplacementHop(t Topology, src, dst int, down func(node int) bool) (int, bool) {
	if down(dst) {
		return -1, false
	}
	for _, hop := range AdmissibleHops(t, src, dst) {
		if !down(hop) {
			return hop, true
		}
	}
	return -1, false
}
