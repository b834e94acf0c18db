package sim

import (
	"fmt"
	"math/rand"
)

// math/rand's generator is an additive lagged Fibonacci register of 607
// words. Seeding fills word i with cooked[i] XOR three outputs of the
// Park–Miller minimal-standard LCG x(n+1) = 48271·x(n) mod (2^31−1), run
// from the seed: after 20 discarded steps, word i takes x(21+3i), x(22+3i)
// and x(23+3i). math/rand computes those by stepping the LCG 1 841 times;
// the LCG is a plain multiplication, so x(n) = 48271^n·x(0), and one table of
// powers gives any word on its own. That is what lets Source seed in
// constant time and compute each word only when a draw needs it.
const (
	rngLen  = 607
	rngTap  = 273
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 21 // the first LCG step whose output lands in word 0
	// headLen is how many draws a source serves before it builds its
	// register; it must not exceed 273. Draw k ≤ 273 adds two words no
	// earlier draw has written, so the first draws need no register, only
	// their own outputs kept for later. The harnesses' per-rank sources
	// draw about 41 values.
	headLen = 64
)

var (
	// rngCooked is math/rand's fixed table of word masks.
	rngCooked [rngLen]int64
	// lcgPow[n] is 48271^(lcgSkip+n) mod (2^31−1).
	lcgPow [3 * rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n < lcgSkip; n++ {
		p = mulMod(p, lcgMul)
	}
	for n := range lcgPow {
		lcgPow[n] = p
		p = mulMod(p, lcgMul)
	}
	recoverCooked()
	selfCheck()
}

// mulMod returns a·b mod 2^31−1 for a, b < 2^31, folding the Mersenne
// modulus instead of dividing.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&lcgMod + v>>31
	v = v&lcgMod + v>>31
	if v >= lcgMod {
		v -= lcgMod
	}
	return v
}

// recoverCooked reads math/rand's cooked table back out of the first 607
// draws of rand.NewSource(1). Draw k (1-based) returns the sum of the words
// at feed position 334−k and tap position 607−k (mod 607) and stores it at the
// feed position. Through draw 273 both words are initial ones; from draw 274
// on the tap reads a word stored by draw k−273 and the feed an initial one,
// so subtracting recovers words 60…0 and 606…334, and with those the first
// 273 draws give words 61…333. Masking the seed-1 LCG words back off leaves
// the cooked table.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[((rngLen-rngTap)-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[(rngLen-rngTap)-k] = out[k] - vec[rngLen-k]
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of state word i for a generator whose chain
// starts at x0.
func lcgWord(x0 uint64, i int) int64 {
	a := int64(mulMod(lcgPow[3*i], x0))
	b := int64(mulMod(lcgPow[3*i+1], x0))
	c := int64(mulMod(lcgPow[3*i+2], x0))
	return a<<40 ^ b<<20 ^ c
}

// selfCheck compares Source with math/rand over every word and past the
// register's wrap, for a few seeds, at start-up: a toolchain whose
// math/rand differs fails here rather than as a moved fingerprint.
func selfCheck() {
	want := rand.NewSource(0).(rand.Source64)
	var got lazySource
	for _, seed := range []int64{1, 0, -7, 1_000_003} {
		want.Seed(seed)
		got.Seed(seed)
		for d := 0; d < 2*rngLen; d++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				panic(fmt.Sprintf("sim: NewSource(%d) draw %d = %#x, math/rand gives %#x", seed, d, g, w))
			}
		}
	}
}

// lazySource is math/rand's generator, seeded in constant time. Its first
// headLen draws compute the two words each adds from the seed and keep
// only their sums (head); the next draw builds the register, every word
// from the seed except those the head draws overwrote, and from then on a
// draw is exactly math/rand's. A source that draws little never holds the
// 607-word register.
type lazySource struct {
	x0        uint64
	n         int // draws served from head since the last Seed
	tap, feed int
	vec       *[rngLen]int64 // the register, nil until built
	head      [headLen]int64
}

// NewSource returns a source whose every draw, under every method, equals
// that of math/rand.NewSource(seed), including after a Seed. Seeding costs
// a few stores; the register is computed only for a source that draws more
// than a few dozen values.
func NewSource(seed int64) rand.Source64 {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state math/rand's Seed(seed) gives.
func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.n = 0
	s.vec = nil
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		if s.n < headLen {
			// Draw k reads the feed word 334−k and the tap word 607−k,
			// both still as seeded, and stores the sum at the feed.
			k := s.n + 1
			x := s.word(rngLen-rngTap-k) + s.word(rngLen-k)
			s.head[s.n] = x
			s.n = k
			return uint64(x)
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word is state word i as seeding leaves it.
func (s *lazySource) word(i int) int64 { return rngCooked[i] ^ lcgWord(s.x0, i) }

// build fills the register as math/rand's would stand after the head
// draws: seeded words, with head draw k's sum at feed position 334−k.
func (s *lazySource) build() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= s.n; k++ {
		s.vec[rngLen-rngTap-k] = s.head[k-1]
	}
	s.tap, s.feed = rngLen-s.n, rngLen-rngTap-s.n
}
