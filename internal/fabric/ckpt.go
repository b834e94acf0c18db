package fabric

import (
	"sort"

	"armcivt/internal/ckpt"
)

// CheckpointSection digests the fabric's state between engine runs:
// link/injection/ejection port reservations, per-source ejection queue
// occupancy and per-position counters. Every field digested here is
// deterministic under the bit-identity contract, so two runs of the same
// workload paused at the same horizon produce equal sections regardless of
// shard count (docs/CHECKPOINT.md). Message free-list depths are left out:
// they depend on the shard count, and no run observes them.
func (nw *Network) CheckpointSection() []byte {
	var enc ckpt.Enc

	// The port arrays and per-position counters are O(links)/O(nodes) and
	// dominate fabric digest cost at large scale, so they are digested
	// sparsely — a port no message ever crossed contributes nothing, and a
	// used port folds with its index so position stays part of the digest.
	ports := func(label string, ls []link) {
		enc.Str(label)
		enc.U32(uint32(len(ls)))
		h := ckpt.MixInit
		for i := range ls {
			if ls[i].nextFree == 0 && ls[i].busy == 0 && ls[i].msgs == 0 {
				continue
			}
			h = ckpt.Mix(h, uint64(i))
			h = ckpt.Mix(h, uint64(ls[i].nextFree))
			h = ckpt.Mix(h, uint64(ls[i].busy))
			h = ckpt.Mix(h, ls[i].msgs)
		}
		enc.U64(h)
	}
	ports("links", nw.links)
	ports("inj", nw.inj)
	ports("ej", nw.ej)

	enc.Str("ejSources")
	h := ckpt.MixInit
	for node, srcs := range nw.ejSources {
		if len(srcs) == 0 {
			continue
		}
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
	for i := range nw.stats {
		s := &nw.stats[i]
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
