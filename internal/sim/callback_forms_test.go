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

// Park and WakeAfter are Sleep taken apart: a chain of callbacks started by
// the process ends in its wake-up, and the process resumes once.
func TestParkIsWokenByTheChainItStarted(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("main", func(p *Proc) {
		e.After(time.Millisecond, func() {
			e.After(time.Millisecond, func() { p.WakeAfter(time.Millisecond) })
		})
		p.Park("the chain")
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(3*time.Millisecond) || e.Resumed() != 2 {
		t.Fatalf("woke at %v after %d resumes, want 3ms and 2 (start, wake)", woke, e.Resumed())
	}
}

type parkedOn struct{ from, to int }

func (w parkedOn) String() string { return fmt.Sprintf("link %d->%d", w.from, w.to) }

// What a process parked on is formatted only for the deadlock report.
func TestDeadlockReportNamesWhatAProcessParkedOn(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) { p.Park(parkedOn{3, 5}) })
	r := NewResource(e, "dma", 1)
	r.AcquireFunc(func() {})
	e.Go("queued", func(p *Proc) { r.Acquire(p) })
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 2 {
		t.Fatalf("err = %v, want a DeadlockError with 2 processes", err)
	}
	if all := strings.Join(dl.Blocked, "; "); !strings.Contains(all, "stuck#1: link 3->5") || !strings.Contains(all, "queued#2: resource dma") {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

// Property: a timed wait in callback form (WaitForFunc) takes the slots the
// process form (WaitFor) takes, whether the trigger or the timeout wins or
// they tie, so a waiter can change form and move nothing around it.
func TestQuickWaitForFuncOrdersLikeWaitFor(t *testing.T) {
	type entry struct {
		who      int
		at       Time
		seq      uint64
		happened bool
	}
	run := func(triggers, timeouts []Duration, callbacks bool) (log []entry) {
		e := NewEngine()
		for i := range triggers {
			i, ev := i, NewEvent(e)
			e.After(triggers[i], ev.Trigger)
			note := func() { log = append(log, entry{i, e.Now(), e.seq, ev.Triggered()}) }
			if callbacks {
				e.After(0, func() { ev.WaitForFunc(timeouts[i], note) })
			} else {
				e.Go("waiter", func(p *Proc) {
					ev.WaitFor(p, timeouts[i])
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
		return reflect.DeepEqual(run(triggers, timeouts, false), run(triggers, timeouts, true))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
