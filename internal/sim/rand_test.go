package sim

import (
	"math/rand"
	"testing"
)

// compareSources draws from math/rand.NewSource(seed) and NewSource(seed)
// side by side through rand.Rand, the method of draw d chosen by
// ops[d%len(ops)], reseeding both with reseed before draw reseedAt. It
// returns the first draw whose values differ, or -1.
func compareSources(seed, reseed int64, reseedAt, draws int, ops []byte) (int, int64, int64) {
	want := rand.New(rand.NewSource(seed))
	got := rand.New(NewSource(seed))
	for d := 0; d < draws; d++ {
		if d == reseedAt {
			want.Seed(reseed)
			got.Seed(reseed)
		}
		var w, g int64
		switch op := ops[d%len(ops)]; op % 4 {
		case 0:
			w, g = want.Int63(), got.Int63()
		case 1:
			w, g = int64(want.Uint64()), int64(got.Uint64())
		case 2:
			n := int64(op)<<20 + 1 // spans both of Int63n's paths
			w, g = want.Int63n(n), got.Int63n(n)
		default:
			n := int(op) + 1
			w, g = int64(want.Intn(n)), int64(got.Intn(n))
		}
		if w != g {
			return d, w, g
		}
	}
	return -1, 0, 0
}

// TestSourceMatchesMathRand pins NewSource to math/rand draw for draw over
// the seeds the simulator uses and the ones its seed arithmetic treats
// specially: 0 (replaced by a fixed seed), negatives, multiples of 2^31−1
// (which reduce to 0), values past 2^31, and the per-rank formula of the
// chaos harness. Every stream runs past the 607-word
// register's wrap and is reseeded once mid-stream, some while the source
// still serves draws without a register.
func TestSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, m, -m, 2 * m, -2 * m, m - 1, m + 1, 1 << 31, 1 << 40, -1 << 40,
		1<<63 - 1, -1 << 63, 89482311, 1_000_003}
	for s := int64(1); s <= 8; s++ {
		for rank := int64(0); rank < 64; rank++ {
			seeds = append(seeds, s*1_000_003+rank)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for len(seeds) < 1200 {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	ops := []byte{0, 1, 2, 3, 1, 1, 0, 6, 3, 5, 4, 9, 255, 130}
	for k, seed := range seeds {
		reseed := seeds[(k*7+3)%len(seeds)]
		if d, w, g := compareSources(seed, reseed, k*37%1700, 3000, ops); d >= 0 {
			t.Fatalf("seed %d (reseed %d): draw %d = %d, math/rand gives %d", seed, reseed, d, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand compares NewSource with math/rand for any seed,
// reseed point and method mix.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), int64(0), uint16(700), []byte{0, 1, 2, 3})
	f.Add(int64(1<<31-1), int64(-1), uint16(0), []byte{1})
	f.Add(int64(-1<<63), int64(1<<40), uint16(1300), []byte{3, 2, 255})
	f.Fuzz(func(t *testing.T, seed, reseed int64, reseedAt uint16, ops []byte) {
		if len(ops) == 0 {
			ops = []byte{1}
		}
		at := int(reseedAt) % 2000
		if d, w, g := compareSources(seed, reseed, at, 2000, ops); d >= 0 {
			t.Fatalf("seed %d (reseed %d at %d): draw %d = %d, math/rand gives %d", seed, reseed, at, d, g, w)
		}
	})
}
