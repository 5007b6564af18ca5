package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// A queued item goes to a GetFunc consumer at once, with no event.
func TestGetFuncRunsInlineOnQueuedItem(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Put(7)
	seq, got := e.seq, 0
	q.GetFunc(func(v int, ok bool) {
		if !ok {
			t.Error("ok = false on a queued item")
		}
		got = v
	})
	if got != 7 || e.seq != seq || q.Len() != 0 {
		t.Fatalf("got %d, %d events scheduled, %d items left; want 7 inline", got, e.seq-seq, q.Len())
	}
}

// The Put that feeds a waiting GetFunc schedules it in the slot a getter's
// wake-up would have had; Puts until it has run queue up behind it, and a
// callback that asks again drains them without another event.
func TestGetFuncPutWhilePendingAppends(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	var events []uint64
	var recv func(v int, ok bool)
	recv = func(v int, ok bool) {
		got = append(got, v)
		events = append(events, e.seq)
		q.GetFunc(recv)
	}
	q.GetFunc(recv)
	e.After(time.Millisecond, func() {
		seq := e.seq
		q.Put(1)
		if e.seq != seq+1 || q.Len() != 0 {
			t.Errorf("first Put: %d events, %d queued; want the callback scheduled", e.seq-seq, q.Len())
		}
		q.Put(2)
		q.Put(3)
		if e.seq != seq+1 || q.Len() != 2 {
			t.Errorf("Puts while pending: %d events, %d queued; want 1 and 2", e.seq-seq, q.Len())
		}
		if len(got) != 0 {
			t.Error("callback ran inside Put")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) || events[0] != events[2] {
		t.Fatalf("got %v at seqs %v, want 1 2 3 in one go", got, events)
	}
}

func TestGetFuncCloseDeliversNotOK(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	calls, lastOK := 0, true
	q.GetFunc(func(v int, ok bool) { calls, lastOK = calls+1, ok })
	e.After(time.Millisecond, q.Close)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || lastOK {
		t.Fatalf("%d calls, ok=%v; want one call with ok=false", calls, lastOK)
	}
	if q.TryPut(1) {
		t.Fatal("TryPut succeeded after Close")
	}
	// On a closed, drained queue GetFunc answers at once.
	q.GetFunc(func(v int, ok bool) { calls, lastOK = calls+1, ok })
	if calls != 2 || lastOK {
		t.Fatalf("GetFunc on a closed queue: %d calls, ok=%v", calls, lastOK)
	}
}

// Process getters and callback getters wait in one queue, in arrival order.
func TestGetFuncAndGetShareOneFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var order []string
	e.Go("first", func(p *Proc) {
		v, _ := q.Get(p)
		order = append(order, fmt.Sprint("proc", v))
	})
	e.After(time.Microsecond, func() {
		q.GetFunc(func(v int, ok bool) { order = append(order, fmt.Sprint("func", v)) })
	})
	e.After(time.Millisecond, func() {
		q.Put(1)
		q.Put(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"proc1", "func2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A consumer that asks again from its callback is served from the slot it
// was just served from: the steady state allocates nothing.
func TestGetFuncAllocs(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var recv func(v int, ok bool)
	recv = func(v int, ok bool) { q.GetFunc(recv) }
	q.GetFunc(recv)
	var allocs float64
	e.Go("producer", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			q.Put(1)
			p.Yield()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per Put and callback, want 0", allocs)
	}
}

// A contended hand-off reuses the waiter list's slot: Release copies the
// list down rather than slicing its head off, so the next waiter's append
// finds the capacity the last one left. The steady state allocates nothing.
func TestContendedHandOffAllocs(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "res")
	grants := 0
	grant := func() { grants++ }
	var allocs float64
	e.Go("holder", func(p *Proc) {
		r.AcquireFunc(grant) // the unit stays held from here on
		allocs = testing.AllocsPerRun(200, func() {
			r.AcquireFunc(grant) // queues behind the holder
			r.Release()          // hands the unit over
			p.Yield()            // the grant runs
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if grants != 202 { // the first hold, AllocsPerRun's warm-up and 200 runs
		t.Fatalf("%d grants, want 202", grants)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocs per contended hand-off, want 0", allocs)
	}
}

// Await is Sleep taken apart: a chain of callbacks started by the process
// ends in its wake-up, and the process resumes once — or not at all when the
// chain ends before start returns — and gets the outcome done was handed.
func TestAwaitIsWokenByTheChainItStarted(t *testing.T) {
	for _, c := range []struct {
		name    string
		chain   func(e *Engine, done func(bool))
		at      Time
		resumed int
		ok      bool
	}{
		{"chain", func(e *Engine, done func(bool)) {
			e.After(time.Millisecond, func() {
				e.After(2*time.Millisecond, func() { done(true) })
			})
		}, Time(3 * time.Millisecond), 2, true},
		{"ended at once", func(_ *Engine, done func(bool)) { done(false) }, 0, 1, false},
	} {
		e := NewEngine()
		var woke Time
		var ok bool
		e.Go("main", func(p *Proc) {
			ok = p.Await("the chain", func(done func(bool)) { c.chain(e, done) })
			woke = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if woke != c.at || e.Resumed() != c.resumed || ok != c.ok {
			t.Errorf("%s: woke at %v after %d resumes with %v, want %v, %d and %v", c.name, woke, e.Resumed(), ok, c.at, c.resumed, c.ok)
		}
	}
}

type parkedOn struct{ from, to int }

func (w parkedOn) String() string { return fmt.Sprintf("link %d->%d", w.from, w.to) }

// What a process parked on is formatted only for the deadlock report.
func TestDeadlockReportNamesWhatAProcessParkedOn(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Await(parkedOn{3, 5}, func(func(bool)) {}) })
	r := NewResource(e, "dma")
	r.AcquireFunc(func() {})
	e.Go("queued", func(p *Proc) { acquire(p, r) })
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 2 {
		t.Fatalf("err = %v, want a DeadlockError with 2 processes", err)
	}
	if all := strings.Join(dl.Blocked, "; "); !strings.Contains(all, "stuck#1: link 3->5") || !strings.Contains(all, "queued#2: resource dma") {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

// Property: a timed wait in callback form (timedWaitFunc: a waiter and a
// timer feeding one guarded callback) takes the slot of a process that
// parks on a wake-up fed by the event and by a timer, whether the trigger
// or the timeout wins or they tie, and so does a process that awaits the
// callback form; a waiter can change form and move nothing around it.
func TestQuickTimedWaitOrdersLikeAProcess(t *testing.T) {
	type entry struct {
		who      int
		at       Time
		seq      uint64
		happened bool
	}
	const callback, parked, awaiting = 0, 1, 2
	run := func(triggers, timeouts []Duration, form int) (log []entry) {
		e := NewEngine()
		for i := range triggers {
			i, ev, d := i, NewEvent(e), timeouts[i]
			e.After(triggers[i], ev.Trigger)
			note := func() { log = append(log, entry{i, e.Now(), e.seq, ev.Triggered()}) }
			switch form {
			case callback:
				e.After(0, func() { timedWaitFunc(ev, d, note) })
			case parked:
				e.Go("waiter", func(p *Proc) {
					if !ev.Triggered() {
						wake := NewEvent(e)
						ev.WaitFunc(wake.Trigger)
						e.After(d, wake.Trigger)
						wake.Wait(p)
					}
					note()
				})
			case awaiting:
				e.Go("waiter", func(p *Proc) {
					timedWait(p, ev, d)
					note()
				})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		triggers, timeouts := make([]Duration, n), make([]Duration, n)
		for i := range triggers {
			triggers[i] = Duration(rng.Intn(4)) * time.Millisecond
			timeouts[i] = Duration(rng.Intn(4)) * time.Millisecond
		}
		want := run(triggers, timeouts, parked)
		return reflect.DeepEqual(run(triggers, timeouts, callback), want) && reflect.DeepEqual(run(triggers, timeouts, awaiting), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Processes and WaitFunc callbacks waiting on one Event wake in
// the order they began to wait; a WaitFunc on a triggered event runs at once.
func TestEventWaitFuncKeepsWaiterOrder(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var order []string
	e.After(0, func() { ev.WaitFunc(func() { order = append(order, "fn1") }) })
	e.Go("p1", func(p *Proc) { ev.Wait(p); order = append(order, "p1") })
	e.After(0, func() { ev.WaitFunc(func() { order = append(order, "sub") }) })
	e.After(0, func() { ev.WaitFunc(func() { order = append(order, "fn2") }) })
	e.Go("p2", func(p *Proc) { ev.Wait(p); order = append(order, "p2") })
	e.After(time.Millisecond, func() {
		ev.Trigger()
		ev.WaitFunc(func() { order = append(order, "late") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "late fn1 p1 sub fn2 p2"; got != want {
		t.Fatalf("wake order %q, want %q", got, want)
	}
}

// A process awaiting a chain goes on inside the chain's last callback: no
// event of its own and no resume per step, and what it does next takes the
// sequence numbers it would have taken had it woken from a Sleep there. The
// chain must end in a bare callback: ended from another process, it panics.
func TestResumeRunsTheProcessInTheCallbacksSlot(t *testing.T) {
	run := func(chain bool) (trace string, popped, resumed int) {
		e := NewEngine()
		var log []string
		e.Go("p", func(p *Proc) {
			if chain {
				p.Await("chain", func(done func(bool)) {
					e.After(time.Millisecond, func() { e.After(time.Millisecond, func() { done(true) }) })
				})
			} else {
				p.Sleep(time.Millisecond)
				p.Sleep(time.Millisecond)
			}
			log = append(log, fmt.Sprintf("p@%v", p.Now()))
			e.After(0, func() { log = append(log, "after") })
		})
		e.After(2*time.Millisecond, func() { log = append(log, "other") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " "), e.Popped(), e.Resumed()
	}
	pt, pp, pr := run(false)
	ct, cp, cr := run(true)
	if pt != ct || pp != cp || pr != 3 || cr != 2 {
		t.Fatalf("process form %q, %d events, %d resumes; chain %q, %d events, %d resumes; want equal traces and events, 3 and 2 resumes",
			pt, pp, pr, ct, cp, cr)
	}
	e := NewEngine()
	var done func(bool)
	e.Go("p", func(p *Proc) { p.Await("chain", func(d func(bool)) { done = d }) })
	e.Go("q", func(*Proc) { done(true) })
	var pe *ProcPanicError
	if err := e.Run(); !errors.As(err, &pe) || pe.Proc != "q" {
		t.Fatalf("err = %v, want q's panic: a chain ended from a process", err)
	}
}
