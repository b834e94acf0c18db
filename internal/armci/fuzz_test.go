package armci

import (
	"testing"
)

// Fuzz targets double as seeded property tests under plain `go test`; run
// them with `go test -fuzz FuzzChunkSegs ./internal/armci` to explore.

func FuzzChunkSegs(f *testing.F) {
	f.Add(10, 100, 3, 64)
	f.Add(0, 0, 1, 0)
	f.Add(5, 40000, 7, 17)
	f.Fuzz(func(t *testing.T, off, ln, count, gap int) {
		if off < 0 || ln < 0 || count < 0 || gap < 0 || count > 64 || ln > 1<<18 {
			t.Skip()
		}
		cfg := DefaultConfig(2, 1)
		var segs []Seg
		pos := off
		total := 0
		for i := 0; i < count; i++ {
			segs = append(segs, Seg{Off: pos, Len: ln})
			total += ln
			pos += ln + gap
		}
		covered := 0
		cfg.chunkSegs(segs, 1, new([]Seg), func(group []Seg, payload, flatOff int) {
			if flatOff != covered {
				t.Fatalf("flatOff %d, want %d", flatOff, covered)
			}
			sum := 0
			for _, s := range group {
				if s.Len < 0 {
					t.Fatalf("bad segment %+v", s)
				}
				sum += s.Len
			}
			if sum != payload {
				t.Fatalf("group sums %d != payload %d", sum, payload)
			}
			if wire := headerBytes + len(group)*segDescBytes + payload; wire > cfg.BufSize {
				t.Fatalf("chunk wire %d exceeds buffer %d", wire, cfg.BufSize)
			}
			covered += payload
		})
		if covered != total {
			t.Fatalf("covered %d of %d payload bytes", covered, total)
		}
	})
}

func FuzzChunkContig(f *testing.F) {
	f.Add(0, 0)
	f.Add(100, 1<<16)
	f.Add(7, 12345)
	f.Fuzz(func(t *testing.T, off, n int) {
		if off < 0 || n < 0 || n > 1<<20 {
			t.Skip()
		}
		cfg := DefaultConfig(2, 1)
		next := off
		got := 0
		chunks := cfg.chunkContig(off, n, func(o, ln int) {
			if o != next {
				t.Fatalf("chunk at %d, want %d (must be contiguous in order)", o, next)
			}
			if ln < 0 || headerBytes+ln > cfg.BufSize {
				t.Fatalf("chunk length %d out of range", ln)
			}
			next = o + ln
			got += ln
		})
		if got != n {
			t.Fatalf("chunked %d of %d bytes", got, n)
		}
		if n == 0 && chunks != 0 {
			t.Fatalf("zero-length op must produce no request, got %d", chunks)
		}
	})
}

func FuzzStridedSegs(f *testing.F) {
	f.Add(0, 8, 32, 4)
	f.Add(100, 0, 0, 0)
	f.Fuzz(func(t *testing.T, off, blockLen, stride, count int) {
		if off < 0 || blockLen < 0 || count < 0 || count > 1000 || stride < blockLen {
			t.Skip()
		}
		segs := StridedSegs(off, blockLen, stride, count)
		if len(segs) != count {
			t.Fatalf("segs = %d, want %d", len(segs), count)
		}
		for i, s := range segs {
			if s.Off != off+i*stride || s.Len != blockLen {
				t.Fatalf("seg %d = %+v", i, s)
			}
		}
		// Non-overlap when stride >= blockLen.
		for i := 1; i < len(segs); i++ {
			if segs[i-1].Off+segs[i-1].Len > segs[i].Off {
				t.Fatalf("segments overlap: %+v then %+v", segs[i-1], segs[i])
			}
		}
	})
}
