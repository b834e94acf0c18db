package faults

import (
	"sort"

	"armcivt/internal/ckpt"
)

// CheckpointSection digests the injector's fault-schedule position at a
// RunUntil horizon: which failures are currently active (and at what
// depth), the bandwidth multipliers in force, crash instants, and the
// activation/repair counters. Map entries are hashed in sorted-key order so
// the digest is independent of Go's map iteration. A nil injector digests to
// a fixed "healthy" section, matching its nil-query semantics.
func (in *Injector) CheckpointSection() []byte {
	var enc ckpt.Enc
	if in == nil {
		enc.Str("nil")
		return enc.Bytes()
	}

	pairMapInt := func(label string, m map[[2]int]int) {
		enc.Str(label)
		keys := make([][2]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		h := ckpt.MixInit
		for _, k := range keys {
			h = ckpt.Mix(h, uint64(k[0]))
			h = ckpt.Mix(h, uint64(k[1]))
			h = ckpt.Mix(h, uint64(m[k]))
		}
		enc.U32(uint32(len(keys)))
		enc.U64(h)
	}
	pairMapInt("linkDown", in.linkDown)

	enc.Str("linkFactor")
	{
		keys := make([][2]int, 0, len(in.linkFactor))
		for k := range in.linkFactor {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		h := ckpt.MixInit
		for _, k := range keys {
			h = ckpt.Mix(h, uint64(k[0]))
			h = ckpt.Mix(h, uint64(k[1]))
			h = ckpt.MixF64(h, in.linkFactor[k])
		}
		enc.U32(uint32(len(keys)))
		enc.U64(h)
	}

	intMapInt := func(label string, m map[int]int) {
		enc.Str(label)
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		h := ckpt.MixInit
		for _, k := range keys {
			h = ckpt.Mix(h, uint64(k))
			h = ckpt.Mix(h, uint64(m[k]))
		}
		enc.U32(uint32(len(keys)))
		enc.U64(h)
	}
	intMapInt("chtDown", in.chtDown)
	intMapInt("nodeDown", in.nodeDown)
	intMapInt("stormDown", in.stormDown)

	enc.Str("crashedAt")
	{
		keys := make([]int, 0, len(in.crashedAt))
		for k := range in.crashedAt {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		h := ckpt.MixInit
		for _, k := range keys {
			h = ckpt.Mix(h, uint64(k))
			h = ckpt.Mix(h, uint64(in.crashedAt[k]))
		}
		enc.U32(uint32(len(keys)))
		enc.U64(h)
	}

	enc.Str("stormFactor")
	{
		keys := make([]int, 0, len(in.stormFactor))
		for k := range in.stormFactor {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		h := ckpt.MixInit
		for _, k := range keys {
			h = ckpt.Mix(h, uint64(k))
			h = ckpt.MixF64(h, in.stormFactor[k])
		}
		enc.U32(uint32(len(keys)))
		enc.U64(h)
	}

	enc.Str("counters")
	enc.U64(in.activations)
	enc.U64(in.repairs)
	enc.U32(uint32(in.active))
	enc.U32(uint32(in.peakActive))

	enc.Str("injected")
	{
		kinds := make([]int, 0, len(in.injected))
		for k := range in.injected {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		h := ckpt.MixInit
		for _, k := range kinds {
			h = ckpt.Mix(h, uint64(k))
			h = ckpt.Mix(h, uint64(in.injected[Kind(k)]))
		}
		enc.U64(h)
	}

	return enc.Bytes()
}
