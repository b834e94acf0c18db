package armci

import (
	"bytes"
	"math/rand"
	"testing"

	"armcivt/internal/ckpt"
)

// FuzzAllocationPages drives a multi-page allocation of two ranks with a
// program of writes, reads, int64 loads and stores, float64 accumulates and
// flattens, at offsets clustered around page boundaries so that accesses
// straddle them, and checks every result against a plain []byte per rank.
// A flatten must keep the content and the checkpoint digest, and the digest
// must always equal that of a flat allocation holding the same bytes.
// Run with `go test -run '^$' -fuzz '^FuzzAllocationPages$' ./internal/armci`.
func FuzzAllocationPages(f *testing.F) {
	f.Add([]byte{0, 1, 0xf8, 20, 7, 1, 1, 0xf8, 20, 0, 2, 1, 0xfc, 0, 0})
	f.Add([]byte{0, 2, 0, 20, 7, 1, 2, 0xf6, 20, 0}) // a read from an unwritten page into a written one
	f.Add([]byte{3, 2, 0xfd, 0, 9, 4, 2, 0xfd, 0, 5, 0x7f, 0, 0, 0, 0, 2, 2, 0xfd, 0, 0})
	f.Add([]byte{0x80, 3, 0x10, 30, 1, 0xff, 0, 0, 0, 0, 0x81, 3, 0x00, 39, 0})
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		prog := make([]byte, 5*200)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		const ranks, size = 2, 3*pageSize + 100
		a := &allocation{name: "fuzz", bytes: size, ranks: ranks}
		ref := [ranks][]byte{make([]byte, size), make([]byte, size)}
		for len(prog) >= 5 {
			op, pg, delta, n, v := prog[0], prog[1], int8(prog[2]), int(prog[3]%40), prog[4]
			prog = prog[5:]
			r := int(op >> 7)
			// Offsets land within 128 bytes of a page boundary.
			off := min(max(int(pg%4)*pageSize+int(delta), 0), size-max(n, 8))
			switch kind := op & 127; {
			case kind == 127: // flatten, rarely, so most programs stay paged
				before := a.digest(ckpt.MixInit)
				if got := a.slab(r); !bytes.Equal(got, ref[r]) {
					t.Fatalf("rank %d flattened slab differs from the reference", r)
				}
				if after := a.digest(ckpt.MixInit); after != before {
					t.Fatalf("flattening rank %d moved the digest %x -> %x", r, before, after)
				}
			case kind%5 == 0:
				src := make([]byte, n)
				for i := range src {
					src[i] = v + byte(i)
				}
				a.write(r, off, src)
				copy(ref[r][off:], src)
			case kind%5 == 1:
				got := make([]byte, n)
				a.read(r, off, got)
				if want := ref[r][off : off+n]; !bytes.Equal(got, want) {
					t.Fatalf("rank %d read [%d,+%d) = % x, want % x", r, off, n, got, want)
				}
			case kind%5 == 2:
				if got, want := a.loadInt64(r, off), GetInt64(ref[r], off); got != want {
					t.Fatalf("rank %d loadInt64(%d) = %d, want %d", r, off, got, want)
				}
			case kind%5 == 3:
				w := int64(v)<<40 | int64(n)
				a.storeInt64(r, off, w)
				PutInt64(ref[r], off, w)
			default:
				scale, x := float64(int8(v))/4, float64(n)
				a.accFloat64(r, off, scale, x)
				PutFloat64(ref[r], off, GetFloat64(ref[r], off)+scale*x)
			}
		}
		for r := range ref {
			got := make([]byte, size)
			a.read(r, 0, got)
			if !bytes.Equal(got, ref[r]) {
				t.Fatalf("rank %d final content differs from the reference", r)
			}
		}
		flat := &allocation{name: "fuzz", bytes: size, ranks: ranks}
		for r := range ref {
			copy(flat.slab(r), ref[r])
		}
		if got, want := a.digest(ckpt.MixInit), flat.digest(ckpt.MixInit); got != want {
			t.Fatalf("digest %x, a flat allocation with the same bytes %x", got, want)
		}
	})
}
