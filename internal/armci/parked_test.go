package armci

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"armcivt/internal/core"
	"armcivt/internal/sim"
)

// TestCreditWaitSteadyStateAllocatesNothing: every rank but rank 0 hammers
// rank 0 with blocking fetch-&-adds over an MFCG whose edges hold one buffer
// per rank, so origin sends park on their first hop and CHT forwards park
// on the way in. Once every rank's warm-up operations are done, the measured
// phase must allocate nothing at all: parked-send and request records come
// off warm free lists, and an egress FIFO that keeps filling and draining
// reuses its array. Rank 0 watches the FIFOs while the others work, so the
// test also proves that both kinds of send parked while it measured.
func TestCreditWaitSteadyStateAllocatesNothing(t *testing.T) {
	const nodes, ppn, warm, measured = 16, 4, 100, 200
	cfg := DefaultConfig(nodes, ppn)
	cfg.Topology = core.MustNew(core.MFCG, nodes)
	cfg.BufsPerProc = 1
	rt := MustNew(sim.New(), cfg)
	rt.Alloc("c", 8)
	workers := nodes*ppn - 1
	var before, after runtime.MemStats
	finished, gated, forwards := 0, 0, 0
	if err := rt.Run(func(r *Rank) {
		if r.Rank() != 0 {
			for i := 0; i < warm; i++ {
				r.FetchAdd(0, "c", 0, 1)
			}
			r.Barrier()
			for i := 0; i < measured; i++ {
				r.FetchAdd(0, "c", 0, 1)
			}
			finished++
			r.Barrier()
			return
		}
		r.Barrier()
		// Quiesce the runtime first: the counters are process-wide, and a
		// collection still in flight or a background scavenger with pages
		// left to release (its sleep timer grows a P's timer heap) mallocs
		// on its own. FreeOSMemory finishes a full cycle and releases every
		// free page, and a window that allocates nothing starts neither
		// again.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&before)
		for finished < workers {
			r.Sleep(sim.Microsecond)
			for n := range rt.nodes {
				for _, eg := range rt.nodes[n].eg {
					if eg == nil {
						continue
					}
					for _, ps := range eg.pending.live() {
						if ps.hasGate {
							gated++
						} else {
							forwards++
						}
					}
				}
			}
		}
		runtime.ReadMemStats(&after)
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if gated == 0 || forwards == 0 {
		t.Fatalf("measured phase saw %d parked origin sends and %d parked forwards; want both nonzero", gated, forwards)
	}
	if got := GetInt64(rt.Memory(0, "c"), 0); got != int64(workers*(warm+measured)) {
		t.Fatalf("counter = %d, want %d", got, workers*(warm+measured))
	}
	ops := workers * measured
	if m := after.Mallocs - before.Mallocs; m != 0 {
		t.Errorf("%d mallocs over %d parked-path fetch-&-adds (%.4f per op), want 0", m, ops, float64(m)/float64(ops))
	}
}

// FuzzEgressFIFO drives an egress's parked-send FIFO through pushes, pops,
// gathers (aggregation on, sends for two target nodes, some not batchable),
// take-alls (the healing replay) and clears (crash-stop), and checks after
// every step that the live entries equal a plain reference slice's, in
// order. Each input byte is one step: its low three bits pick the
// operation, the rest the pushed send's target and kind.
func FuzzEgressFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1})
	f.Add([]byte{0, 8, 16, 24, 2, 0, 9, 2, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, steps []byte) {
		cfg := DefaultConfig(4, 2)
		cfg.Topology = core.MustNew(core.FCG, 4)
		cfg.Agg.Enabled = true
		rt := MustNew(sim.New(), cfg)
		rt.Alloc("m", 64)
		eg := rt.egressTo(0, 1)
		var ref []*pendingSend
		for i, b := range steps {
			switch b & 7 {
			case 0, 5, 6, 7: // push
				req := &request{kind: opAcc, origin: 0, originNode: 0, target: 2 + int32(b>>3&3),
					alloc: rt.alloc("m"), data: make([]byte, 8), wire: headerBytes + 8}
				if b&0x20 != 0 {
					req.kind = opGet // not batchable: stops a gather's scan
				}
				ps := &pendingSend{req: req}
				eg.pending.push(ps)
				ref = append(ref, ps)
			case 1: // pop
				if len(ref) == 0 {
					continue
				}
				if got := eg.pending.pop(); got != ref[0] {
					t.Fatalf("step %d: pop returned %p, want %p", i, got, ref[0])
				}
				ref = ref[1:]
			case 2: // pop, then gather the head's batch as drain does
				if len(ref) == 0 {
					continue
				}
				head := eg.pending.pop()
				if head != ref[0] {
					t.Fatalf("step %d: pop returned %p, want %p", i, head, ref[0])
				}
				want, rest := refGather(rt, ref[0], ref[1:])
				if got := eg.gather(head); !slices.Equal(got, want) {
					t.Fatalf("step %d: gather took %d sends, want %d", i, len(got), len(want))
				}
				ref = rest
			case 3: // take all (healing replay)
				if got := eg.pending.takeAll(); !slices.Equal(got, ref) {
					t.Fatalf("step %d: takeAll returned %d sends, want %d", i, len(got), len(ref))
				}
				ref = nil
			case 4: // clear (crash-stop)
				eg.pending.keep(0)
				ref = nil
			}
			if got := eg.pending.live(); !slices.Equal(got, ref) || eg.pending.len() != len(ref) {
				t.Fatalf("step %d: FIFO holds %d sends (len %d), reference %d", i, len(got), eg.pending.len(), len(ref))
			}
			if f := eg.pending; f.len() == 0 && f.head != 0 {
				t.Fatalf("step %d: empty FIFO left its head at %d", i, f.head)
			}
			for _, ps := range eg.pending.q[:eg.pending.head] {
				if ps != nil {
					t.Fatalf("step %d: a popped slot still holds a send", i)
				}
			}
		}
	})
}

// refGather is gather's batching rule over a plain slice: head plus the
// leading run of batchable sends for head's target node that fit one packet,
// skipping sends for other nodes, in order. It returns the batch and the
// sends left parked.
func refGather(rt *Runtime, head *pendingSend, parked []*pendingSend) (group, rest []*pendingSend) {
	group = []*pendingSend{head}
	if !coalescable(head.req) {
		return group, slices.Clone(parked)
	}
	tn := int(head.req.target) / rt.cfg.PPN
	ops, wire := subCount(head.req), headerBytes+subWireOf(head.req)
	scanning := true
	for _, ps := range parked {
		if scanning && int(ps.req.target)/rt.cfg.PPN == tn {
			if coalescable(ps.req) && ops+subCount(ps.req) <= aggMaxOps &&
				wire+subWireOf(ps.req) <= rt.cfg.BufSize {
				group = append(group, ps)
				ops += subCount(ps.req)
				wire += subWireOf(ps.req)
				continue
			}
			scanning = false
		}
		rest = append(rest, ps)
	}
	return group, rest
}
