package armci

import (
	"bytes"
	"sync/atomic"

	"armcivt/internal/ckpt"
)

// Global memory is demand-paged. An allocation larger than one page keeps,
// per rank, a table of 4 KiB pages that materialize on their first write; a
// read of a page never written returns zeros and materializes nothing. So a
// rank holds host bytes for the pages its workload writes, not for the
// whole allocation: the hot-spot window of figures.Contention is 16.8 MB
// per runtime, of which fetch-add writes one page and vectored put the
// pages under its slots. Runtime.Memory is the one way out to a contiguous
// slice: it flattens the rank (see slab), and from then on every access to
// that rank uses the flat slab. An allocation of one page or less is flat
// from its first touch.
//
// Every byte access of the protocol (the CHT's handle, the ranks' local
// paths and the collectives) goes through the helpers below: write, read, loadInt64/storeInt64
// and accFloat64, each of which handles an access that straddles a page.
//
// A rank's slab and pages are only ever touched from its node's owner
// context, so they need no lock under sharding. The one shared step is
// creating the allocation's per-rank table, at its first touch by any rank
// (a read of an allocation nobody has touched creates none); it is
// published with a compare-and-swap.

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page = [pageSize]byte

// zeroPage is what a read of an unwritten page copies from.
var zeroPage page

type allocation struct {
	name         string
	bytes, ranks int
	// tab holds one entry per rank, nil until the allocation's first touch
	// by any rank: registering an allocation on a 64k-rank job (the
	// collective scratch region is one) costs no per-rank table.
	tab atomic.Pointer[[]rankMem]
}

// rankMem is one rank's memory of one allocation: its slab once flattened,
// its page table before that.
type rankMem struct {
	flat  []byte
	paged *pageTable // nil until the rank's first paged write
}

// pageTable is one rank's pages of one allocation.
type pageTable struct {
	pages []*page // by page number; nil until first written
	// free is the rest of the chunk pages are carved from. Chunks grow
	// geometrically (one page, then as many as are carved so far) up to
	// what the allocation has left, so a rank writing k pages pays about
	// log2(k) mallocs and at most twice its pages' bytes.
	free   []page
	carved int
}

// entry returns rank's entry, creating the allocation's table if this is
// its first touch and create is set; it is nil while there is no table.
func (a *allocation) entry(rank int, create bool) *rankMem {
	tab := a.tab.Load()
	if tab == nil {
		if !create {
			return nil
		}
		fresh := make([]rankMem, a.ranks)
		if a.tab.CompareAndSwap(nil, &fresh) {
			tab = &fresh
		} else {
			tab = a.tab.Load()
		}
	}
	return &(*tab)[rank]
}

// slab flattens rank: it returns the rank's contiguous slab, materializing
// it on first call with any pages already written copied in and the rank's
// page table dropped. Every later access to the rank uses the slab.
func (a *allocation) slab(rank int) []byte {
	e := a.entry(rank, true)
	if e.flat == nil {
		e.flat = make([]byte, a.bytes)
		if t := e.paged; t != nil {
			for i, p := range t.pages {
				if p != nil {
					copy(e.flat[i<<pageShift:], p[:])
				}
			}
			e.paged = nil
		}
	}
	return e.flat
}

// span returns rank's bytes from off to the end of off's page (to the end
// of the slab when the rank is flat). With write set the page materializes;
// without it, nil means the page was never written and reads as zeros. An
// allocation of one page or less is flattened on its first touch.
func (a *allocation) span(rank, off int, write bool) []byte {
	small := a.bytes <= pageSize
	e := a.entry(rank, write || small)
	if e == nil {
		return nil
	}
	if e.flat != nil {
		return e.flat[off:]
	}
	if small {
		return a.slab(rank)[off:]
	}
	t := e.paged
	if t == nil {
		if !write {
			return nil
		}
		t = &pageTable{pages: make([]*page, (a.bytes+pageMask)>>pageShift)}
		e.paged = t
	}
	p := t.pages[off>>pageShift]
	if p == nil {
		if !write {
			return nil
		}
		if len(t.free) == 0 {
			t.free = make([]page, min(max(t.carved, 1), len(t.pages)-t.carved))
		}
		p, t.free = &t.free[0], t.free[1:]
		t.carved++
		t.pages[off>>pageShift] = p
	}
	return p[off&pageMask:]
}

// write copies src into rank's memory at off.
func (a *allocation) write(rank, off int, src []byte) {
	for len(src) > 0 {
		n := copy(a.span(rank, off, true), src)
		src, off = src[n:], off+n
	}
}

// read fills dst from rank's memory at off.
func (a *allocation) read(rank, off int, dst []byte) {
	for len(dst) > 0 {
		s := a.span(rank, off, false)
		if s == nil {
			s = zeroPage[off&pageMask:]
		}
		n := copy(dst, s)
		dst, off = dst[n:], off+n
	}
}

// loadInt64 returns the int64 at rank's offset off.
func (a *allocation) loadInt64(rank, off int) int64 {
	if s := a.span(rank, off, false); len(s) >= 8 {
		return GetInt64(s, 0)
	}
	var w [8]byte
	a.read(rank, off, w[:])
	return GetInt64(w[:], 0)
}

// storeInt64 stores v at rank's offset off.
func (a *allocation) storeInt64(rank, off int, v int64) {
	if s := a.span(rank, off, true); len(s) >= 8 {
		PutInt64(s, 0, v)
		return
	}
	var w [8]byte
	PutInt64(w[:], 0, v)
	a.write(rank, off, w[:])
}

// accFloat64 adds scale*v to the float64 at rank's offset off.
func (a *allocation) accFloat64(rank, off int, scale, v float64) {
	if s := a.span(rank, off, true); len(s) >= 8 {
		PutFloat64(s, 0, GetFloat64(s, 0)+scale*v)
		return
	}
	var w [8]byte
	a.read(rank, off, w[:])
	PutFloat64(w[:], 0, GetFloat64(w[:], 0)+scale*v)
	a.write(rank, off, w[:])
}

// digest folds the allocation's logical content into h page by page: each
// page that is not all zeros contributes its rank, its page number and its
// bytes, so a flat rank and a paged rank holding the same bytes digest the
// same, and memory never written contributes nothing.
func (a *allocation) digest(h uint64) uint64 {
	tab := a.tab.Load()
	if tab == nil {
		return h
	}
	for r, e := range *tab {
		if e.flat == nil && e.paged == nil {
			continue
		}
		for i := 0; i<<pageShift < a.bytes; i++ {
			var pg []byte
			if e.flat != nil {
				pg = e.flat[i<<pageShift : min((i+1)<<pageShift, a.bytes)]
			} else if p := e.paged.pages[i]; p != nil {
				pg = p[:min(pageSize, a.bytes-i<<pageShift)]
			}
			if bytes.Equal(pg, zeroPage[:len(pg)]) {
				continue
			}
			h = ckpt.Mix(h, uint64(r))
			h = ckpt.Mix(h, uint64(i))
			h = ckpt.MixBytes(h, pg)
		}
	}
	return h
}

// residentPages counts the pages the allocation holds host bytes for,
// summed over ranks: every page of a flat rank, the written pages of a
// paged one.
func (a *allocation) residentPages() int {
	tab := a.tab.Load()
	if tab == nil {
		return 0
	}
	n := 0
	for _, e := range *tab {
		if e.flat != nil {
			n += (a.bytes + pageMask) >> pageShift
		} else if e.paged != nil {
			n += e.paged.carved
		}
	}
	return n
}
