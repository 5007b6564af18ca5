package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// Run owns every goroutine it starts: whichever way it returns, the count
// is back where it began — idle ones released, parked ones unwound.
func TestRunLeavesNoGoroutines(t *testing.T) {
	sentinel := errors.New("stopped")
	cases := []struct {
		name  string
		build func(e *Engine) // nil: every process runs to its end
		check func(err error) bool
	}{
		{"success", nil, func(err error) bool { return err == nil }},
		{"deadlock", func(e *Engine) {
			e.Go("stuck", func(p *Proc) { NewEvent(e).Wait(p) })
		}, func(err error) bool {
			var dl *DeadlockError
			return errors.As(err, &dl) && len(dl.Blocked) == 10
		}},
		{"stop", func(e *Engine) {
			e.Go("stopper", func(p *Proc) { p.Sleep(2 * time.Millisecond); e.stop(sentinel) })
		}, func(err error) bool { return errors.Is(err, sentinel) }},
		{"panic", func(e *Engine) {
			e.Go("boom", func(p *Proc) { p.Sleep(2 * time.Millisecond); panic("kaboom") })
		}, func(err error) bool {
			var pp *ProcPanicError
			return errors.As(err, &pp) && pp.Proc == "boom"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				e := NewEngine()
				never := NewEvent(e)
				for j := 0; j < 9; j++ {
					j := j
					e.Go(fmt.Sprintf("p%d", j), func(p *Proc) {
						p.Sleep(time.Duration(j) * time.Millisecond)
						if tc.build != nil {
							never.Wait(p) // still parked when Run returns
						}
					})
				}
				if tc.build != nil {
					tc.build(e)
				}
				if err := e.Run(); !tc.check(err) {
					t.Fatalf("err = %v", err)
				}
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("goroutines: %d before, %d after", before, after)
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it is at most want,
// or after two seconds. A goroutine reports back to Run a few instructions
// before it is gone; those stragglers get a moment, a leak stays a leak.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// A parked process unwound by Run still runs its deferred calls, one
// process at a time.
func TestRunUnwindsParkedProcesses(t *testing.T) {
	e := NewEngine()
	never := NewEvent(e)
	unwound := map[string]bool{} // a concurrent write would trip -race
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Go(name, func(p *Proc) {
			defer func() { unwound[name] = true }()
			never.Wait(p)
		})
	}
	if err := e.Run(); err == nil {
		t.Fatal("want DeadlockError")
	}
	if len(unwound) != 3 {
		t.Fatalf("unwound = %v", unwound)
	}
}

// A panic on a goroutine that earlier ran another process is reported
// under the panicking process's name.
func TestPanicInRecycledGoroutine(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Go("first", func(p *Proc) { ran++ })
	e.Go("boom", func(p *Proc) { p.Sleep(time.Millisecond); panic("kaboom") })
	e.Go("after", func(p *Proc) { p.Sleep(time.Millisecond); ran++ }) // discarded by the stop
	err := e.Run()
	var pp *ProcPanicError
	if !errors.As(err, &pp) || pp.Proc != "boom" {
		t.Fatalf("err = %v, want ProcPanicError from boom", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "sim: process boom panicked: kaboom\n") {
		t.Fatalf("Error() = %q, want the process, the value and then the stack", msg)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want only first to run", ran)
	}
	if n := e.Spawned(); n != 3 {
		t.Fatalf("Spawned = %d", n)
	}
}

// A bare callback that panics stops the simulation like a process that does,
// whichever goroutine was dispatching — Run itself, a process that exited, a
// process that blocked — and is reported as the event's panic, not as that of
// the process whose goroutine ran it. No goroutine is left behind.
func TestPanicInBareCallback(t *testing.T) {
	cases := map[string]func(e *Engine){
		"from Run": func(e *Engine) {
			e.After(time.Millisecond, func() { panic("kaboom") })
		},
		"from an exiting process": func(e *Engine) {
			e.Go("issuer", func(p *Proc) { e.After(time.Millisecond, func() { panic("kaboom") }) })
		},
		"from a blocking process": func(e *Engine) {
			e.Go("bystander", func(p *Proc) {
				e.After(time.Millisecond, func() { panic("kaboom") })
				p.Sleep(time.Second)
			})
		},
		"granted by Release": func(e *Engine) {
			r := NewResource(e, "engine")
			e.Go("holder", func(p *Proc) {
				acquire(p, r)
				r.AcquireFunc(func() { panic("kaboom") })
				p.Sleep(time.Millisecond)
				r.Release()
				NewEvent(e).Wait(p)
			})
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			build(e)
			ran := false
			e.After(time.Hour, func() { e.Go("later", func(p *Proc) { ran = true }) })
			finished := make(chan error, 1)
			go func() { finished <- e.Run() }()
			select {
			case err := <-finished:
				var pp *ProcPanicError
				if !errors.As(err, &pp) || pp.Proc != "(event)" || pp.Value != "kaboom" {
					t.Fatalf("err = %v, want ProcPanicError from (event)", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return")
			}
			if ran {
				t.Fatal("a process started after the panic")
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("goroutines: %d before, %d after", before, after)
			}
		})
	}
}

// A WaitUntil guard runs on the engine loop: its panic, and a block inside
// it (which park refuses), stop the run with an error under the waiter's
// name, and the parked waiter is unwound.
func TestWaitUntilGuardPanicIsRunError(t *testing.T) {
	for want, guard := range map[string]func(p *Proc) bool{
		"guard":                          func(*Proc) bool { panic("guard") },
		"blocks outside its own process": func(p *Proc) bool { p.Yield(); return true },
	} {
		e := NewEngine()
		s := NewSignal(e)
		unwound := false
		e.Go("guarded", func(p *Proc) {
			defer func() { unwound = true }()
			s.WaitUntil(p, s.Gen(), func() bool { return guard(p) })
		})
		e.After(time.Millisecond, s.Broadcast)
		var pp *ProcPanicError
		if err := e.Run(); !errors.As(err, &pp) || pp.Proc != "guarded" || !strings.Contains(fmt.Sprint(pp.Value), want) {
			t.Fatalf("err = %v, want ProcPanicError from guarded: %s", err, want)
		}
		if !unwound {
			t.Fatal("the waiter was not unwound")
		}
	}
}

// A deferred call that blocks while Run unwinds its parked process is cut
// short; the defers registered before it still run, and Run returns.
func TestUnwindCutsShortBlockingDefer(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var log []string
	e.Go("stuck", func(p *Proc) {
		defer func() { log = append(log, "outer") }()
		defer func() {
			log = append(log, "sleeping")
			p.Sleep(time.Millisecond)
			log = append(log, "slept")
		}()
		NewEvent(e).Wait(p)
	})
	finished := make(chan error, 1)
	go func() { finished <- e.Run() }()
	select {
	case err := <-finished:
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("err = %v, want DeadlockError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	if want := []string{"sleeping", "outer"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// A body that recovers every panic cannot swallow the unwinding: it is raised
// again at each blocking call made afterwards, so a process that goes round a
// recover-and-block loop is still gone when Run returns.
func TestRecoverCannotSwallowUnwind(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	never := NewEvent(e)
	blocked := 0
	e.Go("stubborn", func(p *Proc) {
		for i := 0; i < 5; i++ {
			func() {
				defer func() { _ = recover() }()
				blocked++
				never.Wait(p)
				t.Error("a wait on an event nobody triggers returned")
			}()
		}
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if blocked != 5 {
		t.Fatalf("blocked %d times, want 5: once in the simulation, four cut short", blocked)
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// Run from inside one of its own processes or callbacks would pop events
// under the loop that is already popping them; it panics instead, and the
// outer Run reports that like any other panic.
func TestRunIsNotReentrant(t *testing.T) {
	cases := map[string]struct {
		build func(e *Engine)
		proc  string
	}{
		"from a process":  {func(e *Engine) { e.Go("inner", func(p *Proc) { _ = e.Run() }) }, "inner"},
		"from a callback": {func(e *Engine) { e.After(time.Millisecond, func() { _ = e.Run() }) }, "(event)"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			tc.build(e)
			ran := false
			e.After(time.Hour, func() { e.Go("later", func(p *Proc) { ran = true }) })
			var pp *ProcPanicError
			if err := e.Run(); !errors.As(err, &pp) || pp.Proc != tc.proc || pp.Value != "sim: Run is not re-entrant" {
				t.Fatalf("err = %v, want ProcPanicError from %s", err, tc.proc)
			}
			if ran {
				t.Fatal("the inner Run dispatched an event")
			}
		})
	}
}

// A blocking call parks the process it is given, which must be the one
// running: from a bare callback, from another process, or on a process that
// has not started, it panics under the name of the process it would have
// parked, and Run reports that like any other panic.
func TestParkOutsideOwnProcessPanics(t *testing.T) {
	cases := map[string]struct {
		build func(e *Engine)
		proc  string
	}{
		"from a callback": {func(e *Engine) {
			e.Go("sleeper", func(p *Proc) {
				e.After(time.Millisecond, func() { p.Sleep(time.Millisecond) })
				p.Sleep(time.Second)
			})
		}, "(event)"},
		"from another process": {func(e *Engine) {
			e.Go("sleeper", func(p *Proc) {
				e.Go("intruder", func(*Proc) { p.Sleep(time.Millisecond) })
				p.Sleep(time.Second)
			})
		}, "intruder"},
		"before it starts": {func(e *Engine) {
			var sleeper *Proc
			e.Go("intruder", func(*Proc) { sleeper.Sleep(time.Millisecond) })
			sleeper = e.Go("sleeper", func(*Proc) {})
		}, "intruder"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			tc.build(e)
			var pp *ProcPanicError
			if err := e.Run(); !errors.As(err, &pp) || pp.Proc != tc.proc || pp.Value != "sim: sleeper blocks outside its own process" {
				t.Fatalf("err = %v, want ProcPanicError from %s naming sleeper", err, tc.proc)
			}
		})
	}
}

// Processes that exit hand their goroutine to the next one to start.
func TestGoroutinesAreRecycled(t *testing.T) {
	e := NewEngine()
	peak := 0
	e.Go("spawner", func(p *Proc) {
		base := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			e.Go("child", func(c *Proc) { c.Sleep(time.Microsecond) })
			p.Sleep(time.Millisecond)
			if n := runtime.NumGoroutine() - base; n > peak {
				peak = n
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak > 1 {
		t.Fatalf("1000 sequential children used %d extra goroutines, want 1", peak)
	}
}

// Engine.Go in steady state allocates the Proc and nothing else: no
// goroutine, no stack, no channel, no closure.
func TestSpawnAllocs(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Go("spawner", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			e.Go("child", func(c *Proc) {})
			p.Yield() // let the child run and exit
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Fatalf("%.1f allocs per spawn, want 1", allocs)
	}
	if size := unsafe.Sizeof(Proc{}); size > 64 {
		t.Fatalf("Proc is %d bytes, want <= 64 (the next size class is 80)", size)
	}
}

// Waiting on an event and triggering it allocate nothing when there is one
// waiter, as there nearly always is: the Event holds it inline.
func TestEventWaitAllocs(t *testing.T) {
	const runs = 200
	e := NewEngine()
	evs := make([]*Event, runs+1) // AllocsPerRun makes one warm-up call
	for i := range evs {
		evs[i] = NewEvent(e)
	}
	e.Go("waiter", func(p *Proc) {
		for _, ev := range evs {
			ev.Wait(p)
		}
	})
	var allocs float64
	e.Go("trigger", func(p *Proc) {
		i := 0
		allocs = testing.AllocsPerRun(runs, func() {
			evs[i].Trigger()
			i++
			p.Yield() // the waiter wakes, and waits on the next event
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per wait and trigger, want 0", allocs)
	}
	if size := unsafe.Sizeof(Event{}); size > 48 {
		t.Fatalf("Event is %d bytes, want <= 48 (the next size class is 64)", size)
	}
}

// A Signal keeps its waiter slice from round to round, so a broadcast and
// the waits that follow it allocate nothing in steady state: a plain Wait
// that is switched to, and a WaitUntil whose guard declines.
func TestSignalAllocs(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	stop := false
	e.Go("plain", func(p *Proc) {
		for !stop {
			s.Wait(p, s.Gen())
		}
	})
	e.Go("guarded", func(p *Proc) {
		s.WaitUntil(p, s.Gen(), func() bool { return stop })
	})
	var allocs float64
	e.Go("broadcaster", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			s.Broadcast()
			p.Yield() // the waiters wake, or decline, and wait again
		})
		stop = true
		s.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per broadcast and re-wait, want 0", allocs)
	}
}

// Property: on one Resource, processes that await AcquireFunc and chains of
// callbacks around it are granted in request order (the resource only ever
// passes to the oldest waiter), and every grant and completion is
// dispatched in the (at, seq) slot the all-callback version gives it: a
// process resumes in its grant's slot. The logs, which carry the engine's
// next sequence number at every step, are equal. Times are drawn from a
// tiny range so that equal-time ties — where only seq decides — are the
// common case.
func TestQuickAcquireFuncOrdersLikeAChain(t *testing.T) {
	type user struct {
		arrive, hold Duration
		callback     bool
	}
	type entry struct {
		what string
		user int
		at   Time
		seq  uint64
	}
	run := func(users []user, allCallbacks bool) (log []entry, requests, grants []int) {
		e := NewEngine()
		r := NewResource(e, "res")
		note := func(what string, i int) {
			log = append(log, entry{what, i, e.Now(), e.seq})
		}
		for i, u := range users {
			i, u := i, u
			done := NewEvent(e)
			// Both forms start in one slot at time zero and ask at arrive.
			if u.callback || allCallbacks {
				e.After(0, func() {
					e.After(u.arrive, func() {
						note("request", i)
						requests = append(requests, i)
						r.AcquireFunc(func() {
							note("grant", i)
							grants = append(grants, i)
							e.After(u.hold, func() {
								r.Release()
								note("done", i)
								done.Trigger()
							})
						})
					})
				})
			} else {
				e.Go("user", func(p *Proc) {
					p.Sleep(u.arrive)
					note("request", i)
					requests = append(requests, i)
					acquire(p, r)
					note("grant", i)
					grants = append(grants, i)
					p.Sleep(u.hold)
					r.Release()
					note("done", i)
					done.Trigger()
				})
			}
			// A bystander per user, woken by the completion: its slot
			// moves if the completion's does.
			e.Go("watcher", func(p *Proc) {
				done.Wait(p)
				note("seen", i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, requests, grants
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := make([]user, 2+rng.Intn(20))
		for i := range users {
			users[i] = user{
				arrive:   Duration(rng.Intn(4)) * time.Millisecond,
				hold:     Duration(rng.Intn(3)) * time.Millisecond,
				callback: rng.Intn(2) == 0,
			}
		}
		mixed, requests, grants := run(users, false)
		chains, _, _ := run(users, true)
		return reflect.DeepEqual(requests, grants) && reflect.DeepEqual(mixed, chains)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
