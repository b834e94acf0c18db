package ckpt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelMixChunk is the fixed item count each concurrently-hashed chunk
// covers. It is part of the digest definition — the chunk boundaries decide
// which items share a running hash — so it must never depend on the machine
// (core count, GOMAXPROCS): two runs compared boundary by boundary must
// digest identical byte streams on any host.
const parallelMixChunk = 4096

// ParallelMix digests n items by hashing fixed-size chunks concurrently and
// folding the per-chunk digests in chunk order, so the result is
// deterministic and independent of worker count while the heavy per-item
// work spreads across cores. fn must return the digest of items [lo, hi)
// starting from MixInit, reading shared state only — sections are digested
// at a quiescent boundary with every shard parked, so concurrent reads are
// safe.
// Small inputs are hashed inline: the goroutine fan-out only pays for itself
// on the O(nodes) arena loops at large scale.
func ParallelMix(n int, fn func(lo, hi int) uint64) uint64 {
	if n <= parallelMixChunk {
		return fn(0, n)
	}
	nchunks := (n + parallelMixChunk - 1) / parallelMixChunk
	digests := make([]uint64, nchunks)
	workers := runtime.GOMAXPROCS(0)
	if workers > nchunks {
		workers = nchunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * parallelMixChunk
				hi := lo + parallelMixChunk
				if hi > n {
					hi = n
				}
				digests[c] = fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	h := MixInit
	for _, d := range digests {
		h = Mix(h, d)
	}
	return h
}
