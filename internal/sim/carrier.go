//go:build go1.23

package sim

import "iter"

// carrier is a coroutine that runs process bodies one after another. The
// runner resumes it with next and the body hands control back with yield:
// both are direct coroutine switches, with no run queue or thread wake-up in
// between, and the carrier's goroutine never runs concurrently with the
// runner that resumed it.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process whose body this carrier is running
}

func newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			runBody(c.p)
			if !yield(struct{}{}) {
				return // stopped (Shutdown), idle or with its body just unwound
			}
		}
	})
	return c
}

// resumeBody switches to p's body until it parks or exits. A process borrows
// its carrier from idle (the free list of the runner resuming it) at its first
// resume, so one that never starts never owns a goroutine, and returns it when
// the body exits, so run-to-exit processes share a single carrier.
func (p *Proc) resumeBody(idle *[]*carrier) {
	c := p.co
	if c == nil {
		if n := len(*idle); n > 0 {
			c, *idle = (*idle)[n-1], (*idle)[:n-1]
		} else {
			c = newCarrier()
		}
		c.p, p.co = p, c
	}
	c.next()
	if p.state == procDone {
		c.p, p.co = nil, nil
		*idle = append(*idle, c)
	}
}

// stopCarriers ends every idle carrier's goroutine and empties the list.
func stopCarriers(idle *[]*carrier) {
	for _, c := range *idle {
		c.stop()
	}
	*idle = nil
}
