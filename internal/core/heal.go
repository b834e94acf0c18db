package core

// ReplacementHop elects a next hop from src toward dst that avoids every
// node the predicate down reports failed: Topology.Hop with down as the
// avoid set, so every survivor that shares a view of the failed set elects
// the same replacement — a deterministic election with no extra protocol
// round. ok is false when dst is down or every admissible forwarder toward
// it has failed.
//
// On the grid family each admissible hop corrects one whole dimension, so a
// replacement never lengthens the path: the paper's D <= M hop bound holds
// through healing (on Dragonfly a route around k dead nodes may take
// MaxHops + k hops). Deadlock freedom does not follow from it. A replacement
// may correct a higher dimension before a lower one, which is the mixed
// order LDF forbids: on a 16-node Hypercube with nodes 0 and 7 dead, the
// healed routes close the buffer-dependency cycle
// (3→2)(2→6)(6→4)(4→5)(5→1)(1→3). TestHealedRouteCertificate counts the
// cyclic dead sets of every family and pins them as ceilings.
func ReplacementHop(t Topology, src, dst int, down func(node int) bool) (int, bool) {
	if down(dst) {
		return -1, false
	}
	return t.Hop(src, dst, down)
}
