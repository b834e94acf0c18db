package fabric

import (
	"sort"

	"armcivt/internal/ckpt"
)

// CheckpointSection digests the fabric's state between engine runs:
// link/injection/ejection port reservations, per-source ejection queue
// occupancy and per-position counters. Every field digested here is
// deterministic under the bit-identity contract, so two runs of the same
// workload paused at the same horizon produce equal sections
// (docs/CHECKPOINT.md). Message free-list depths are left out: they are
// host-side cache state, and no run observes them.
func (nw *Network) CheckpointSection() []byte {
	var enc ckpt.Enc

	// Ports and per-position counters are O(links)/O(nodes) and dominate
	// fabric digest cost at large scale, so they are digested sparsely — a
	// port no message ever crossed contributes nothing, and a used port
	// folds with its index so position stays part of the digest. Links are
	// numbered position-major (position*6 + link); a position never carved
	// contributes nothing anywhere.
	port := func(h uint64, i int, l *link) uint64 {
		if l.nextFree == 0 && l.busy == 0 && l.msgs == 0 {
			return h
		}
		h = ckpt.Mix(h, uint64(i))
		h = ckpt.Mix(h, uint64(l.nextFree))
		h = ckpt.Mix(h, uint64(l.busy))
		return ckpt.Mix(h, l.msgs)
	}
	ports := func(label string, n int, at func(h uint64, p int, ps *position) uint64) {
		enc.Str(label)
		enc.U32(uint32(n))
		h := ckpt.MixInit
		for p, ps := range nw.pos {
			if ps != nil {
				h = at(h, p, ps)
			}
		}
		enc.U64(h)
	}
	ports("links", len(nw.pos)*6, func(h uint64, p int, ps *position) uint64 {
		for j := range ps.links {
			h = port(h, p*6+j, &ps.links[j])
		}
		return h
	})
	ports("inj", nw.n, func(h uint64, p int, ps *position) uint64 { return port(h, p, &ps.inj) })
	ports("ej", nw.n, func(h uint64, p int, ps *position) uint64 { return port(h, p, &ps.ej) })

	enc.Str("ejSources")
	h := ckpt.MixInit
	for node, ps := range nw.pos {
		if ps == nil || len(ps.ejSources) == 0 {
			continue
		}
		srcs := ps.ejSources
		keys := make([]int, 0, len(srcs))
		for src := range srcs {
			keys = append(keys, src)
		}
		sort.Ints(keys)
		h = ckpt.Mix(h, uint64(node))
		h = ckpt.Mix(h, uint64(len(keys)))
		for _, src := range keys {
			h = ckpt.Mix(h, uint64(src))
			h = ckpt.Mix(h, uint64(srcs[src]))
		}
	}
	enc.U64(h)

	enc.Str("stats")
	h = ckpt.MixInit
	for i, ps := range nw.pos {
		if ps == nil {
			continue
		}
		s := &ps.stats
		if s.Messages|s.Bytes|uint64(s.MaxQueueWait)|uint64(s.MaxStreams)|
			s.LinkStalls|s.Reroutes|s.Dropped|s.NodeDrops == 0 {
			continue
		}
		h = ckpt.Mix(h, uint64(i))
		h = ckpt.Mix(h, s.Messages)
		h = ckpt.Mix(h, s.Bytes)
		h = ckpt.Mix(h, uint64(s.MaxQueueWait))
		h = ckpt.Mix(h, uint64(s.MaxStreams))
		h = ckpt.Mix(h, s.LinkStalls)
		h = ckpt.Mix(h, s.Reroutes)
		h = ckpt.Mix(h, s.Dropped)
		h = ckpt.Mix(h, s.NodeDrops)
	}
	enc.U64(h)

	return enc.Bytes()
}
