package armci

import (
	"sort"

	"armcivt/internal/ckpt"
	"armcivt/internal/sim"
)

// checkpointSection digests the ARMCI layer's state between engine runs:
// per-node protocol counters, the built egresses (credits, parked sends,
// debts), CHT pending counts and inbox depths, dedup tables, membership
// views, allocation contents, and free-list depths. Everything here
// is owner-context state, deterministic at a RunUntil horizon under the
// bit-identity contract.
func (rt *Runtime) checkpointSection() []byte {
	var enc ckpt.Enc

	// The three O(nodes)/O(edges) arena loops dominate capture cost at 16k+
	// nodes, so they are digested sparsely — entries still in their initial
	// state contribute nothing, and a touched entry is folded with its index
	// so position stays part of the digest. In the paper's incast workloads
	// only the active set and the hot paths toward rank 0 ever leave the
	// virgin state, so the per-capture work tracks the touched footprint,
	// not the node count.
	enc.Str("nstats")
	h := ckpt.MixInit
	for n, s := range rt.nstats {
		if s == nil {
			continue // never carved: a zero block, which contributes nothing
		}
		fields := []uint64{
			s.Ops, s.Requests, s.Forwards, s.LocalOps, s.CreditWaits,
			uint64(s.CreditWaited), uint64(s.MaxCHTBacklog),
			s.Timeouts, s.Retries, s.Failures, s.CreditRegens, s.Reroutes,
			s.DupDrops, s.NoRoutes, s.AggBatches, s.AggBatchedOps,
			s.Suspicions, s.Confirms, s.Rejoins,
			s.HealReplays, s.HealFails, s.CreditWriteOffs, s.StaleAcks,
			s.NodeAborts, uint64(s.MaxDetectLatency), s.Completions,
		}
		var any uint64
		for _, v := range fields {
			any |= v
		}
		if any == 0 {
			continue
		}
		h = ckpt.Mix(h, uint64(n))
		for _, v := range fields {
			h = ckpt.Mix(h, v)
		}
	}
	enc.U64(h)

	// Edges are numbered node-major in sorted-neighbor order; a node never
	// built contributes its degree's worth of untouched edges.
	enc.Str("egress")
	h = ckpt.MixInit
	rt.nodeEdges(func(ns *nodeState, base, _ int) {
		for j, eg := range ns.eg {
			if eg == nil || eg.credits == rt.poolCap && eg.pending.len() == 0 &&
				eg.regenDebt == 0 && eg.transmits == 0 {
				continue // untouched edge: full credits, no history
			}
			h = ckpt.Mix(h, uint64(base+j))
			h = ckpt.Mix(h, uint64(eg.credits))
			h = ckpt.Mix(h, uint64(eg.pending.len()))
			h = ckpt.Mix(h, uint64(eg.regenDebt))
			h = ckpt.Mix(h, eg.transmits)
		}
	})
	enc.U64(h)

	enc.Str("nodes")
	h = ckpt.MixInit
	rt.eachNode(func(ns *nodeState) {
		if !nodeStateVirgin(ns) {
			h = ckpt.Mix(h, uint64(ns.id))
			h = rt.mixNodeState(h, ns)
		}
	})
	enc.U64(h)

	enc.Str("misc")
	h = ckpt.MixInit
	h = ckpt.Mix(h, uint64(rt.liveRanks))
	h = ckpt.Mix(h, uint64(rt.barrier.arrived))
	for m := range rt.mutexes {
		mu := &rt.mutexes[m]
		if mu.held {
			h = ckpt.Mix(h, 1)
		} else {
			h = ckpt.Mix(h, 0)
		}
		h = ckpt.Mix(h, uint64(uint32(int32(mu.owner))))
		h = ckpt.Mix(h, uint64(len(mu.waiters)))
	}
	enc.U64(h)

	enc.Str("allocs")
	h = ckpt.MixInit
	for _, a := range rt.sortedAllocs() {
		h = ckpt.MixStr(h, a.name)
		h = ckpt.Mix(h, uint64(a.bytes))
		h = a.digest(h)
	}
	enc.U64(h)

	return enc.Bytes()
}

// nodeStateVirgin reports whether a node's digestable state is still
// exactly as constructed (its edge state built or not), so the sparse nodes
// digest may skip it: no CHT pendings or inbox entries, no dedup history, no
// membership view, and empty free lists.
func nodeStateVirgin(ns *nodeState) bool {
	if ns.pendingSrcs != 0 || ns.inbox.Len() != 0 || ns.ridSeq != 0 ||
		len(ns.rids) != 0 || ns.mv != nil ||
		ns.npsFree != 0 || ns.nreqFree != 0 {
		return false
	}
	for _, p := range ns.pendingBySrc {
		if p != 0 {
			return false
		}
	}
	return true
}

// mixNodeState folds one node's owner-context protocol state into the
// running digest: CHT pending counts and inbox depth, the dedup table, the
// membership view, and free-list depths.
// A node whose edge state was never built folds in as if it had been, with
// every per-edge entry at its initial value.
func (rt *Runtime) mixNodeState(h uint64, ns *nodeState) uint64 {
	nbrs := ns.nbrs
	built := nbrs != nil
	if !built {
		nbrs = rt.topo.Neighbors(ns.id)
	}
	for i := range nbrs {
		var p int32
		if built {
			p = ns.pendingBySrc[i]
		}
		h = ckpt.Mix(h, uint64(uint32(p)))
	}
	h = ckpt.Mix(h, uint64(ns.pendingSrcs))
	h = ckpt.Mix(h, uint64(ns.inbox.Len()))
	h = ckpt.Mix(h, ns.ridSeq)
	if len(ns.rids) > 0 {
		keys := make([]uint64, 0, len(ns.rids))
		for rid := range ns.rids {
			keys = append(keys, rid)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		h = ckpt.Mix(h, uint64(len(keys)))
		for _, rid := range keys {
			d := ns.rids[rid]
			h = ckpt.Mix(h, rid)
			if d.responded {
				h = ckpt.Mix(h, 1)
			} else {
				h = ckpt.Mix(h, 0)
			}
			h = ckpt.Mix(h, uint64(d.old))
		}
	}
	if ns.mv != nil {
		h = ckpt.Mix(h, uint64(ns.mv.resetAt))
		var heard sim.Time
		var state memberState
		for i, nbr := range nbrs {
			if built {
				heard, state = ns.mv.lastHeard[i], ns.mv.state[i]
			}
			h = ckpt.Mix(h, uint64(nbr))
			h = ckpt.Mix(h, uint64(heard))
			h = ckpt.Mix(h, uint64(state))
		}
		for _, ln := range ns.mv.lines {
			h = ckpt.Mix(h, uint64(uint32(ln.judged)))
			h = ckpt.Mix(h, uint64(ln.since))
		}
	}
	h = ckpt.Mix(h, uint64(ns.npsFree))
	h = ckpt.Mix(h, uint64(ns.nreqFree))
	return h
}
