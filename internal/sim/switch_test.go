package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// TestDispatchOrderGolden pins the exact interleaving of scheduler events
// and process switches for a small model touching every blocking
// primitive: Spawn, same-time Sleep ties, Yield, Wait, WaitAny,
// Queue.Pop and OnFire callbacks. The literal was captured from the
// kernel's Trace output; any change in how control passes between the
// scheduler and processes shows up here as a reordered line.
func TestDispatchOrderGolden(t *testing.T) {
	e := NewEngine()
	var lines []string
	e.Trace = func(l string) { lines = append(lines, l) }
	us := units.Microsecond
	a := e.NewSignal("a")
	b := e.NewSignal("b")
	c := e.NewSignal("c")
	q := e.NewQueue("q")
	a.OnFire(func() { e.tracef("onfire a#1") })
	a.OnFire(func() { e.tracef("onfire a#2") })
	e.Spawn("p0", func(p *Proc) {
		p.Sleep(us)
		e.tracef("p0 after sleep")
		p.Yield()
		e.tracef("p0 after yield")
		a.Fire()
		q.Push(1)
		p.Wait(b)
		e.tracef("p0 saw b")
		q.Push(2)
	})
	e.Spawn("p1", func(p *Proc) {
		p.Sleep(us) // ties with p0's wake-up
		e.tracef("p1 after sleep")
		p.Wait(a)
		e.tracef("p1 saw a")
		i := p.WaitAny(c, b)
		e.tracef("p1 WaitAny -> %d", i)
		e.tracef("p1 popped %v", q.Pop(p))
	})
	e.Spawn("p2", func(p *Proc) {
		e.tracef("p2 popped %v", q.Pop(p))
		p.Yield()
		b.OnFire(func() { e.tracef("onfire b") })
		p.Sleep(us)
		b.Fire()
		p.Yield()
		c.Fire()
	})
	e.At(units.Time(us), func() { e.tracef("event at 1us") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := `[0ps] run p0
[0ps] park p0: sleeping
[0ps] run p1
[0ps] park p1: sleeping
[0ps] run p2
[0ps] park p2: popping queue q
[1us] event at 1us
[1us] run p0
[1us] p0 after sleep
[1us] park p0: yielding
[1us] run p1
[1us] p1 after sleep
[1us] park p1: waiting on signal a
[1us] run p0
[1us] p0 after yield
[1us] park p0: waiting on signal b
[1us] run p1
[1us] p1 saw a
[1us] park p1: waiting on any of c
[1us] onfire a#1
[1us] onfire a#2
[1us] run p2
[1us] p2 popped 1
[1us] park p2: yielding
[1us] run p2
[1us] park p2: sleeping
[2us] run p2
[2us] park p2: yielding
[2us] run p0
[2us] p0 saw b
[2us] run p1
[2us] p1 WaitAny -> 1
[2us] p1 popped 2
[2us] onfire b
[2us] run p2`
	if got := strings.Join(lines, "\n"); got != want {
		t.Fatalf("trace differs from golden:\n%s\nwant:\n%s", got, want)
	}
}

// TestShutdownNeverDispatched: a process spawned but never run (the run
// was stopped before its first dispatch) must still be unwound by
// Shutdown, leaving it Done and no goroutine behind.
func TestShutdownNeverDispatched(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	ran := false
	p := e.Spawn("idle", func(*Proc) { ran = true })
	e.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if ran {
		t.Fatal("process body ran although it was never dispatched")
	}
	if !p.Done() {
		t.Fatal("never-dispatched process not Done after Shutdown")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after Shutdown", before, n)
	}
}

// TestParkWakeDoesNotAllocate: once warm, a process sleeping and waiting
// on a signal another process fires switches back and forth without
// allocating. Each measured round is one Sleep park/wake per process
// plus one Wait/Fire handoff on a signal created before measuring.
func TestParkWakeDoesNotAllocate(t *testing.T) {
	const perRound, runs = 64, 20
	e := NewEngine()
	// AllocsPerRun makes one warm-up call plus runs measured calls.
	sigs := make([]*Signal, perRound*(runs+1))
	for i := range sigs {
		sigs[i] = e.NewSignal("tick")
	}
	fired := 0
	e.Spawn("waiter", func(p *Proc) {
		for _, s := range sigs {
			p.Sleep(units.Nanosecond)
			p.Wait(s)
		}
	})
	e.Spawn("firer", func(p *Proc) {
		for _, s := range sigs {
			p.Sleep(2 * units.Nanosecond)
			s.Fire()
			fired++
		}
	})
	allocs := testing.AllocsPerRun(runs, func() {
		if err := e.RunUntil(e.Now().Add(2 * perRound * units.Nanosecond)); err != nil {
			t.Fatal(err)
		}
	})
	e.Shutdown()
	if fired != len(sigs) {
		t.Fatalf("fired %d signals, want %d", fired, len(sigs))
	}
	if allocs != 0 {
		t.Fatalf("park/wake round trip allocates: %v allocs per run, want 0", allocs)
	}
}
