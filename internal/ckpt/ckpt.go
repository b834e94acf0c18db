// Package ckpt holds the byte-comparable state-digest helpers every layer
// shares, plus the atomic file writer the sweep cache uses.
//
// Each simulation layer (sim kernel, fabric, fault injector, armci runtime)
// exposes a CheckpointSection: a digest of its state, read between runs of
// the engine — after Run, or at a sim.Engine.RunUntil horizon, where every
// event at or before the horizon has run and none after it. Because a run is
// a pure function of its configuration, two runs of the same workload
// stepped through the same horizons produce byte-equal sections at each; tests use them as the determinism oracle. Horizon rule
// and section contents: docs/CHECKPOINT.md.
//
// The package is a pure-stdlib leaf: sim, fabric, faults, armci and sweep all
// import it, so it must import none of them.
package ckpt

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
)

// Enc is a little-endian append encoder. The layers build their state
// sections with it so every value has one canonical byte form and sections
// stay byte-comparable across runs.
type Enc struct{ buf []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Word-at-a-time mixing helpers. The layers fold large arrays (arenas,
// heaps, link state) into fixed-size running digests instead of dumping
// them raw, which keeps sections bounded at 64k-node scale while staying
// byte-comparable; one labeled digest per structure localizes a divergence
// to its layer.
//
// The fold is xor-multiply-xorshift over whole 64-bit words (one multiply
// per word, not eight): digests run at every horizon over O(nodes) state,
// and at 16k+ nodes a byte-at-a-time FNV-1a loop was the single hottest
// function in an armed run. The divergence-detection job only needs
// determinism and avalanche, which the xorshift finisher provides.
const MixInit uint64 = 14695981039346656037

const mixPrime = 1099511628211

// Mix folds the 64-bit word v into the running hash h.
func Mix(h, v uint64) uint64 {
	h ^= v
	h *= mixPrime
	return h ^ h>>32
}

// MixStr folds a string into the running hash, length first so
// concatenations cannot collide.
func MixStr(h uint64, s string) uint64 {
	h = Mix(h, uint64(len(s)))
	for len(s) >= 8 {
		h = Mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var tail uint64
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * i)
		}
		h = Mix(h, tail)
	}
	return h
}

// MixF64 folds a float64 into the running hash via its IEEE-754 bits.
func MixF64(h uint64, v float64) uint64 { return Mix(h, math.Float64bits(v)) }

// MixBytes folds a byte slice into the running hash, length first.
func MixBytes(h uint64, b []byte) uint64 {
	h = Mix(h, uint64(len(b)))
	for len(b) >= 8 {
		h = Mix(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail uint64
		for i := 0; i < len(b); i++ {
			tail |= uint64(b[i]) << (8 * i)
		}
		h = Mix(h, tail)
	}
	return h
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename. Sweep cache entries go through it, so an interrupted writer
// leaves either the old file or the new one, never a torn mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), perm); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
