package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustRun(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{2 * Microsecond, "2.000us"},
		{1500 * Microsecond, "1.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeMicrosSeconds(t *testing.T) {
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros = %v, want 2.5", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	mustRun(t, e)
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30", e.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	mustRun(t, e)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of spawn order: %v", got)
		}
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := New()
	var at Time
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past
	})
	mustRun(t, e)
	if at != 100 {
		t.Errorf("past event ran at %v, want clamp to 100", at)
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	mustRun(t, e)
	if wake != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", wake)
	}
}

func TestProcSleepNegativeIsZero(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	mustRun(t, e)
}

func TestInterleavedProcs(t *testing.T) {
	e := New()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b15")
	})
	mustRun(t, e)
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := New()
	var started Time
	e.GoAt(77, "late", func(p *Proc) { started = p.Now() })
	mustRun(t, e)
	if started != 77 {
		t.Errorf("started at %v, want 77", started)
	}
}

func TestYieldPreservesFairness(t *testing.T) {
	e := New()
	var trace []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < 2; k++ {
				trace = append(trace, i)
				p.Yield()
			}
		})
	}
	mustRun(t, e)
	want := []int{0, 1, 2, 0, 1, 2}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i * 10)
			p.Sleep(1)
		}
	})
	mustRun(t, e)
	if want := []int{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if q.Puts() != 3 {
		t.Errorf("Puts = %d, want 3", q.Puts())
	}
}

func TestQueueMultipleWaitersFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v := q.Get(p)
			order = append(order, fmt.Sprintf("%s=%d", name, v))
		})
	}
	e.GoAt(10, "producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	mustRun(t, e)
	want := []string{"w1=1", "w2=2", "w3=3"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := New()
	q := NewQueue[string](e, "q")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue succeeded")
	}
	q.Put("x")
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %q,%v want x,true", v, ok)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after drain", q.Len())
	}
}

func TestQueueMaxLenHighWater(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	q.TryGet()
	q.Put(9)
	if q.MaxLen() != 5 {
		t.Errorf("MaxLen = %d, want 5", q.MaxLen())
	}
}

func TestQueueClear(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	if q.Clear() != 0 {
		t.Error("Clear on empty queue dropped items")
	}
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	q.TryGet() // advance head so Clear must handle a nonzero offset
	if got := q.Clear(); got != 4 {
		t.Errorf("Clear dropped %d items, want 4", got)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after Clear", q.Len())
	}
	// The queue must remain usable: puts after a clear arrive in order.
	q.Put(7)
	q.Put(8)
	if v, ok := q.TryGet(); !ok || v != 7 {
		t.Errorf("TryGet after Clear = %d,%v want 7,true", v, ok)
	}
	q.TryGet() // drain the 8
	// A parked getter stays parked across Clear and is served by a later Put.
	var got int
	e.Spawn("getter", func(p *Proc) { got = q.Get(p) })
	e.GoAt(5, "clear-then-put", func(p *Proc) {
		q.Clear()
		p.Sleep(1)
		q.Put(42)
	})
	mustRun(t, e)
	if got != 42 {
		t.Errorf("parked getter got %d, want 42", got)
	}
}

func TestQueueCompaction(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "q")
	e.Spawn("p", func(p *Proc) {
		for round := 0; round < 10; round++ {
			for i := 0; i < 100; i++ {
				q.Put(round*100 + i)
			}
			for i := 0; i < 100; i++ {
				if got := q.Get(p); got != round*100+i {
					t.Fatalf("round %d item %d: got %d", round, i, got)
				}
			}
		}
	})
	mustRun(t, e)
}

func TestEventBroadcast(t *testing.T) {
	e := New()
	ev := NewEvent(e, "go")
	var woke []string
	for _, n := range []string{"a", "b"} {
		n := n
		e.Spawn(n, func(p *Proc) {
			ev.Wait(p)
			woke = append(woke, fmt.Sprintf("%s@%d", n, p.Now()))
		})
	}
	e.GoAt(9, "firer", func(p *Proc) { ev.Fire() })
	mustRun(t, e)
	sort.Strings(woke)
	want := []string{"a@9", "b@9"}
	if !reflect.DeepEqual(woke, want) {
		t.Errorf("woke = %v, want %v", woke, want)
	}
	if !ev.Fired() {
		t.Error("Fired() = false after Fire")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	e := New()
	ev := NewEvent(e, "go")
	ev.Fire()
	ev.Fire() // double fire is a no-op
	var at Time = -1
	e.GoAt(5, "late", func(p *Proc) {
		ev.Wait(p)
		at = p.Now()
	})
	mustRun(t, e)
	if at != 5 {
		t.Errorf("late waiter resumed at %v, want 5", at)
	}
}

// TestWaitersWakeInRegistrationOrder pins that Queue and Event wake 1, 2 and
// 64 waiters in the order they registered — the inline first waiter, then
// the overflow slice — and again when the same processes wait a second
// time, after a drained queue or a fired and re-armed event. Waiters
// register in reverse spawn order in the first round and in spawn order in
// the second, so the log shows registration order, not spawn order.
func TestWaitersWakeInRegistrationOrder(t *testing.T) {
	for _, k := range []int{1, 2, 64} {
		// regAt is when waiter i registers in round r; the rounds' wakes come
		// at 400 and 900.
		regAt := func(r, i int) Time {
			if r == 0 {
				return Time(k - i)
			}
			return 500 + Time(i)
		}
		check := func(t *testing.T, woke [2][]int) {
			t.Helper()
			for r := range 2 {
				want := make([]int, k)
				for i := range want {
					want[i] = i
					if r == 0 {
						want[i] = k - 1 - i
					}
				}
				if !reflect.DeepEqual(woke[r], want) {
					t.Errorf("round %d woke %v, want %v", r, woke[r], want)
				}
			}
		}
		t.Run(fmt.Sprintf("queue/%d", k), func(t *testing.T) {
			e := New()
			q := NewQueue[int](e, "q")
			var woke [2][]int
			for i := range k {
				e.Spawn("getter", func(p *Proc) {
					for r := range 2 {
						p.Sleep(regAt(r, i) - p.Now())
						q.Get(p)
						woke[r] = append(woke[r], i)
					}
				})
			}
			for _, at := range []Time{400, 900} {
				e.At(at, func() {
					for range k {
						q.Put(0)
					}
				})
			}
			mustRun(t, e)
			check(t, woke)
		})
		t.Run(fmt.Sprintf("event/%d", k), func(t *testing.T) {
			e := New()
			ev := NewEvent(e, "ev")
			var woke [2][]int
			for i := range k {
				e.Spawn("waiter", func(p *Proc) {
					for r := range 2 {
						p.Sleep(regAt(r, i) - p.Now())
						ev.Wait(p)
						woke[r] = append(woke[r], i)
					}
				})
			}
			e.At(400, ev.Fire)
			e.At(450, func() { ev.Init(e, "ev") })
			e.At(900, ev.Fire)
			mustRun(t, e)
			check(t, woke)
		})
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	a := NewQueue[int](e, "A")
	b := NewQueue[int](e, "B")
	e.Spawn("p1", func(p *Proc) {
		p.Sleep(1)
		a.Get(p) // deadlock: only p2 puts to A, after its own Get
		b.Put(1)
	})
	e.Spawn("p2", func(p *Proc) {
		p.Sleep(1)
		b.Get(p) // deadlock: only p1 puts to B, after its own Get
		a.Put(1)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("Blocked = %v, want 2 entries", dl.Blocked)
	}
	if dl.At != 1 {
		t.Errorf("deadlock time = %v, want 1", dl.At)
	}
}

// walkLive is the process-table walk the engine's live count replaces.
func walkLive(e *Engine) int {
	n := 0
	e.eachProc(func(b *burst, _ int, st procState, _ *Proc) {
		if !b.daemon && st != procDone {
			n++
		}
	})
	return n
}

// TestLiveCountMatchesWalk checks the live non-daemon count against a walk
// of the process table after spawns, exits, a deadlocked drain (whose
// report text must not change) and Shutdown.
func TestLiveCountMatchesWalk(t *testing.T) {
	e := New()
	check := func(when string) {
		t.Helper()
		if got, want := e.liveNonDaemons(), walkLive(e); got != want {
			t.Fatalf("%s: live count %d, walk %d", when, got, want)
		}
	}
	q := NewQueue[int](e, "q")
	e.SpawnDaemonOn(0, "server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	for i := 0; i < 4; i++ {
		e.SpawnOn(i, fmt.Sprintf("done%d", i), func(p *Proc) { p.Sleep(Time(i + 1)) })
	}
	e.SpawnOn(1, "stuck", func(p *Proc) {
		p.Sleep(10)
		NewEvent(e, "never").Wait(p)
	})
	e.SpawnOn(2, "unstarted", func(p *Proc) {})
	check("after spawn")
	if got := e.liveNonDaemons(); got != 6 {
		t.Fatalf("live count %d after spawning 6 non-daemons", got)
	}
	if err := e.RunUntil(5); err == nil {
		t.Fatal("RunUntil(5) = nil, want a time limit")
	}
	check("mid-run")
	err := e.Run()
	check("after drain")
	want := "sim: deadlock at t=10ns, 1 blocked process(es): stuck: event never"
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %q", err, want)
	}
	if got := e.liveNonDaemons(); got != 1 {
		t.Fatalf("live count %d, want the one stuck process", got)
	}
	e.Shutdown()
	check("after Shutdown")
	if got := e.liveNonDaemons(); got != 0 {
		t.Fatalf("live count %d after Shutdown", got)
	}
}

// TestSerialInstantRunsGlobalEventsAlone checks that global events may
// mutate cross-owner state: the classic barrier-counter pattern, with every
// arrival one global delay after its process's call.
func TestSerialInstantRunsGlobalEventsAlone(t *testing.T) {
	eng := New()
	const owners = 4
	eng.ConfigureOwners(owners, 50)
	counter := 0
	var arrived []Time
	releases := make([]*Event, owners)
	for o := 0; o < owners; o++ {
		releases[o] = NewEvent(eng, fmt.Sprintf("rel%d", o))
	}
	for o := 0; o < owners; o++ {
		o := o
		eng.SpawnOn(o, fmt.Sprintf("p%d", o), func(p *Proc) {
			p.Sleep(Time(5 * (o + 1)))
			eng.AtGlobal(func() {
				counter++
				arrived = append(arrived, eng.Now())
				if counter == owners {
					for _, ev := range releases {
						ev.Fire()
					}
				}
			})
			releases[o].Wait(p)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	if want := []Time{55, 60, 65, 70}; !reflect.DeepEqual(arrived, want) {
		t.Fatalf("global events ran at %v, want %v", arrived, want)
	}
}

func TestDaemonDoesNotCauseDeadlock(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "requests")
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			q.Get(p) // blocks forever once clients stop
		}
	})
	e.Spawn("client", func(p *Proc) {
		q.Put(1)
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
}

func TestRunUntilTimeLimit(t *testing.T) {
	e := New()
	ticks := 0
	e.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
		}
	})
	err := e.RunUntil(95)
	var tl *TimeLimitError
	if !errors.As(err, &tl) {
		t.Fatalf("RunUntil = %v, want TimeLimitError", err)
	}
	if ticks != 9 {
		t.Errorf("ticks = %d, want 9", ticks)
	}
	if e.Now() != 95 {
		t.Errorf("Now = %v, want 95", e.Now())
	}
}

func TestRunUntilCompletesEarly(t *testing.T) {
	e := New()
	e.Spawn("quick", func(p *Proc) { p.Sleep(5) })
	if err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil = %v, want nil", err)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

// A horizon earlier than the clock leaves the clock where it is: moving it
// back would let the caller schedule below the queue's last pop.
func TestRunUntilNeverMovesClockBack(t *testing.T) {
	e := New()
	var ran []Time
	note := func() { ran = append(ran, e.Now()) }
	e.At(150, note)
	e.AtOn(1, 1000, note)
	for _, limit := range []Time{200, 100} {
		var tl *TimeLimitError
		if err := e.RunUntil(limit); !errors.As(err, &tl) {
			t.Fatalf("RunUntil(%v) = %v, want TimeLimitError", limit, err)
		}
		if e.Now() != 200 {
			t.Fatalf("after RunUntil(%v) Now = %v, want 200", limit, e.Now())
		}
	}
	e.At(e.Now()+10, note)
	mustRun(t, e)
	if want := []Time{150, 210, 1000}; !reflect.DeepEqual(ran, want) {
		t.Errorf("events ran at %v, want %v", ran, want)
	}
	e.Shutdown()
}

// Every RunUntil return leaves the scheduling context global, so an event
// the caller schedules between horizons has the origin and owner it would
// have had if scheduled before the run began.
func TestRunUntilResetsSchedulingOwner(t *testing.T) {
	run := func(cut bool) (section []byte, owner int) {
		e := New()
		e.AtOn(1, 100, func() {})
		e.AtOn(0, 300, func() {})
		owner = GlobalOwner - 1 // no owner: the event has not run
		late := func() { owner = e.ctxOwner }
		if cut {
			var tl *TimeLimitError
			if err := e.RunUntil(200); !errors.As(err, &tl) {
				t.Fatalf("RunUntil(200) = %v, want TimeLimitError", err)
			}
		}
		e.At(250, late)
		mustRun(t, e)
		e.Shutdown()
		return e.CheckpointSection(), owner
	}
	whole, wholeOwner := run(false)
	cut, cutOwner := run(true)
	if wholeOwner != GlobalOwner || cutOwner != GlobalOwner {
		t.Errorf("event ran as owner %d scheduled before the run, %d between horizons; want %d",
			wholeOwner, cutOwner, GlobalOwner)
	}
	if !bytes.Equal(whole, cut) {
		t.Error("a run cut at a horizon ends in a different kernel state than one Run")
	}
}

func TestBlockedProcsReport(t *testing.T) {
	e := New()
	q := NewQueue[int](e, "never")
	e.Spawn("stuck", func(p *Proc) { q.Get(p) })
	_ = e.Run()
	bl := e.BlockedProcs()
	if len(bl) != 1 || bl[0] != "stuck: queue never" {
		t.Errorf("BlockedProcs = %v", bl)
	}
}

// TestNumberedNames pins numbered process and queue names to the strings
// formatting them eagerly gave: a deadlock report, a trace and Name read
// prefix plus decimal number, and a negative number names the prefix alone.
func TestNumberedNames(t *testing.T) {
	e := New()
	var traced []string
	e.SetTracer(TracerFunc(func(r TraceRecord) {
		if r.Kind == TraceSpawn {
			traced = append(traced, r.Proc)
		}
	}))
	var q Queue[int]
	q.Init("cht", 4095)
	rank := e.SpawnNumberedOn(0, "rank", 17, func(p *Proc) { q.Get(p) })
	step := e.SpawnStepOn(0, "cht", 0, func(p *Proc) { p.Sleep(1) })
	plain := e.SpawnStepOn(0, "idle", -1, func(p *Proc) { p.Sleep(1) })
	_ = e.RunUntil(3)
	if got := []string{e.Proc(rank).Name(), e.Proc(step).Name(), e.Proc(plain).Name()}; !reflect.DeepEqual(got, []string{"rank17", "cht0", "idle"}) {
		t.Errorf("names = %q", got)
	}
	if !reflect.DeepEqual(traced, []string{"rank17", "cht0", "idle"}) {
		t.Errorf("spawn trace names = %q", traced)
	}
	if bl := e.BlockedProcs(); len(bl) != 1 || bl[0] != "rank17: queue cht4095" {
		t.Errorf("BlockedProcs = %q", bl)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		e.Seed(42)
		q := NewQueue[int](e, "q")
		tokens := NewQueue[int](e, "tokens") // a pool of three, taken FIFO
		for i := 0; i < 3; i++ {
			tokens.Put(i)
		}
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					d := Time(e.Rand().Intn(20))
					p.Sleep(d)
					tok := tokens.Get(p)
					p.Sleep(Time(e.Rand().Intn(5)))
					tokens.Put(tok)
					q.Put(i*100 + k)
					trace = append(trace, fmt.Sprintf("%d@%d", i*100+k, p.Now()))
				}
			})
		}
		e.SpawnDaemon("drain", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestRunReentrancyPanics(t *testing.T) {
	e := New()
	e.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		_ = e.Run()
	})
	mustRun(t, e)
}

// Property: for random sleep schedules, processes always observe
// monotonically non-decreasing time and wake exactly at their target times.
func TestPropertySleepExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		n := 2 + rng.Intn(6)
		ok := true
		for i := 0; i < n; i++ {
			delays := make([]Time, 1+rng.Intn(8))
			for j := range delays {
				delays[j] = Time(rng.Intn(1000))
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				expect := Time(0)
				for _, d := range delays {
					before := p.Now()
					p.Sleep(d)
					expect = before + d
					if p.Now() != expect {
						ok = false
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	deferRan, lateRan := 0, 0
	for i := 0; i < 20; i++ {
		q := NewQueue[int](e, "never")
		e.SpawnDaemonOn(i%4, fmt.Sprintf("d%d", i), func(p *Proc) {
			defer func() { deferRan++ }() // runs in Shutdown, on the test's goroutine
			q.Get(p)
		})
		// Step daemons and processes that never start own no goroutine.
		e.SpawnStepOn(i%4, "s", i, func(p *Proc) { q.Poll(p) })
		e.GoAtOn(i%4, 1000, fmt.Sprintf("late%d", i), func(p *Proc) { lateRan++ })
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("spawning created %d goroutines", n-before)
	}
	if _, ok := e.RunUntil(500).(*TimeLimitError); !ok {
		t.Fatal("expected the late starts to outlive the horizon")
	}
	// One carrier per parked body.
	if n := runtime.NumGoroutine(); n > before+20 {
		t.Errorf("engine holds %d goroutines, want at most 20", n-before)
	}
	e.Shutdown()
	if deferRan != 20 || lateRan != 0 {
		t.Errorf("%d deferred cleanups ran (want 20), %d never-started bodies ran (want 0)", deferRan, lateRan)
	}
	if got := waitGoroutines(before); got > before {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", before, got)
	}
}

func TestShutdownKillsNeverStartedProcs(t *testing.T) {
	e := New()
	ran := false
	e.GoAt(100, "late", func(p *Proc) { ran = true })
	if err := e.RunUntil(50); err == nil {
		t.Fatal("expected time-limit error")
	}
	e.Shutdown()
	if ran {
		t.Error("killed proc body ran")
	}
}

func TestShutdownWhileRunningPanics(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown during run did not panic")
			}
		}()
		e.Shutdown()
	})
	_ = e.Run()
}

func TestShutdownIdempotentAndRunnableAfter(t *testing.T) {
	e := New()
	e.SpawnDaemon("d", func(p *Proc) { NewQueue[int](e, "q").Get(p) })
	_ = e.Run()
	e.Shutdown()
	e.Shutdown() // second call is a no-op
}

// TestFlagWaiterShowsItsLabel pins that a Flag, which stores no name, shows
// the label its waiter passed in deadlock reports, next to an Event's
// "event <name>", and that a fired and reset flag parks its next waiter
// again.
func TestFlagWaiterShowsItsLabel(t *testing.T) {
	e := New()
	var f Flag
	ev := NewEvent(e, "ev")
	woke := 0
	e.Spawn("p1", func(p *Proc) {
		f.Wait(p, "event op")
		woke++
		p.Sleep(20)
		f.Wait(p, "event op") // reset at 20: parks until the deadlock
	})
	e.Spawn("p2", func(p *Proc) { ev.Wait(p) })
	e.At(10, func() {
		f.Fire()
	})
	e.At(20, func() {
		if !f.Fired() {
			t.Error("Fired = false after Fire")
		}
		f.Reset()
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if want := []string{"p1: event op", "p2: event ev"}; !reflect.DeepEqual(dl.Blocked, want) {
		t.Errorf("Blocked = %q, want %q", dl.Blocked, want)
	}
	if woke != 1 {
		t.Errorf("p1 woke %d times, want 1", woke)
	}
}

// TestQueueStubAdoptMatchesPoll: a step process that parks on a QueueStub at
// t=0 and is adopted by its queue when the queue is built at t=3 runs
// exactly as one that polled the built queue at t=0. Both see the same
// items at the same instants, trace the same park labels, and leave the
// kernel's checkpoint section equal. Adopt leaves alone a process that has
// not run yet and one waiting on anything else.
func TestQueueStubAdoptMatchesPoll(t *testing.T) {
	stub := NewQueueStub("cht")
	run := func(lazy bool) (got []string, trace []TraceRecord, section []byte) {
		e := New()
		e.SetTracer(TracerFunc(func(r TraceRecord) { trace = append(trace, r) }))
		var q *Queue[int]
		step := func(p *Proc) {
			if q == nil || p.Num() != 7 { // the others' queues are never built
				stub.Park(p)
				return
			}
			for {
				x, ok := q.Poll(p)
				if !ok {
					return
				}
				got = append(got, fmt.Sprintf("%d@%v", x, p.Now()))
			}
		}
		build := func() {
			q = &Queue[int]{}
			q.Init("cht", 7)
		}
		if !lazy {
			build()
		}
		var id int
		for n := range 8 {
			if pn := e.SpawnStepOn(n, "cht", n, step); n == 7 {
				id = pn
			}
		}
		e.At(3, func() {
			if lazy {
				build()
				if !q.Adopt(stub, e.Proc(id)) {
					t.Error("Adopt refused the process parked on the stub")
				}
			}
		})
		e.At(5, func() { q.Put(1); q.Put(2) })
		e.At(9, func() { q.Put(3) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got, trace, e.CheckpointSection()
	}
	wantGot, wantTrace, wantSection := run(false)
	got, trace, section := run(true)
	if !reflect.DeepEqual(got, wantGot) || len(got) != 3 {
		t.Errorf("adopted process took %q, polling one %q", got, wantGot)
	}
	if !reflect.DeepEqual(trace, wantTrace) {
		t.Errorf("traces differ:\n adopted %v\n polling %v", trace, wantTrace)
	}
	if !bytes.Equal(section, wantSection) {
		t.Error("kernel checkpoint sections differ")
	}

	e := New()
	var q Queue[int]
	fresh := e.SpawnStepOn(0, "cht", 0, func(p *Proc) { stub.Park(p) })
	if q.Adopt(stub, e.Proc(fresh)) {
		t.Error("Adopt took a process that has not run")
	}
	sleeper := e.SpawnStepOn(1, "cht", 1, func(p *Proc) { p.Sleep(10) })
	if err := e.RunUntil(1); err == nil {
		t.Fatal("RunUntil(1) drained a queue holding a sleeper's wake-up")
	}
	if q.Adopt(stub, e.Proc(sleeper)) {
		t.Error("Adopt took a sleeping process")
	}
	if got := e.Proc(fresh).BlockedOn(); got != "queue cht0" {
		t.Errorf("a process parked on the stub reads blocked on %q, want %q", got, "queue cht0")
	}
}

// TestReusedRecordIgnoresNoStaleResume: a process record is reused once its
// process exits, and a resume event that still names the record from before
// (a stale reference, which the kernel never leaves behind) is refused by the
// generation check instead of resuming the record's next holder early.
func TestReusedRecordIgnoresNoStaleResume(t *testing.T) {
	e := New()
	var first *Proc
	e.Spawn("a", func(p *Proc) {
		first = p
		e.scheduleProc(p, 5, evSwitch) // outlives a: stale once a exits
	})
	var woke Time
	e.GoAt(1, "b", func(p *Proc) {
		if p != first {
			t.Errorf("b got a fresh record, want a's, released at its exit")
		}
		p.Sleep(9)
		woke = p.Now()
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "stale resume") {
			t.Fatalf("the stale resume ran (b woke at %v, want 10): recovered %v", woke, r)
		}
		if woke != 0 {
			t.Fatalf("b woke at %v before the stale resume was refused", woke)
		}
	}()
	_ = e.Run()
}

// TestRecordsFollowLife: a process holds a record from its first resume to
// its exit, a step process parked on a QueueStub none, and Proc rebuilds a
// stubbed one exactly; records are reused, so an idle burst of 4096 bodies
// that exit at once carves one.
func TestRecordsFollowLife(t *testing.T) {
	e := New()
	stub := NewQueueStub("cht")
	e.SpawnStepBurst(4096, 1, "cht", func(p *Proc) { stub.Park(p) })
	q := NewQueue[int](e, "q")
	e.SpawnBurst(4096, 2, "rank", func(p *Proc) {
		if p.Num() == 7 {
			q.Get(p)
		}
	})
	if got := e.LiveRecords(); got != 0 {
		t.Fatalf("%d records before any process ran, want 0", got)
	}
	if _, ok := e.RunUntil(0).(*TimeLimitError); ok {
		t.Fatal("time limit at 0")
	}
	if got := e.LiveRecords(); got != 1 {
		t.Errorf("%d records live with one process blocked, want 1", got)
	}
	if n := len(e.recs); n != 1 || cap(e.recs[0]) != 16 {
		t.Errorf("records carved in %d chunks (first of %d), want one chunk of 16", n, cap(e.recs[0]))
	}
	p := e.Proc(4096 + 7)
	if p == nil || p.Name() != "rank7" || p.BlockedOn() != "queue q" || p.owner != 3 {
		t.Fatalf("Proc(rank7) = %+v", p)
	}
	if e.Proc(4096+8) != nil || e.Proc(0) == nil {
		t.Error("Proc gave a record to an exited process or none to a stubbed one")
	}
	if got := e.Proc(9).BlockedOn(); got != "queue cht9" {
		t.Errorf("rebuilt stubbed record blocked on %q, want queue cht9", got)
	}
	if got := e.LiveRecords(); got != 3 {
		t.Errorf("%d records live after rebuilding two stubbed ones, want 3", got)
	}
	q.Put(1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveRecords(); got != 2 {
		t.Errorf("%d records live after rank7 exited, want the 2 rebuilt", got)
	}
}
