package sim

import (
	"testing"
	"time"
)

// timedWaitFunc waits on ev for at most d in callback form, as gasnet's
// reliable send waits for its ack: a waiter on ev and a timer feed one
// callback, and the first of them to run schedules fn — in the slot a
// process woken then would resume in — while fn runs at once on a triggered
// event. fn asks Triggered for the outcome.
func timedWaitFunc(ev *Event, d Duration, fn func()) {
	if ev.Triggered() {
		fn()
		return
	}
	armed := true
	wake := func() {
		if armed {
			armed = false
			ev.e.After(0, fn)
		}
	}
	ev.WaitFunc(wake)
	ev.e.After(d, wake)
}

// timedWait is how a process waits on ev for at most d: it awaits
// timedWaitFunc and reports whether the event has triggered.
func timedWait(p *Proc, ev *Event, d Duration) bool {
	return p.Await("event wait", func(done func(bool)) { timedWaitFunc(ev, d, func() { done(ev.Triggered()) }) })
}

// A callback waiter runs once, at the trigger instant, however often the
// event is triggered.
func TestWaitFuncRunsOnceAtTriggerTime(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	var firedAt Time
	fired := 0
	ev.WaitFunc(func() { fired++; firedAt = e.Now() })
	e.Go("trigger", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		ev.Trigger()
		ev.Trigger() // a second trigger wakes no one
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("callback ran %d times", fired)
	}
	if firedAt != Time(3*time.Millisecond) {
		t.Fatalf("callback at %v, want 3ms", firedAt)
	}
}

func TestQueueTryPut(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	if !q.TryPut(7) {
		t.Fatal("TryPut failed on an open queue")
	}
	e.Go("main", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok || v != 7 {
			t.Errorf("Get = %d/%v", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if q.TryPut(8) {
		t.Fatal("TryPut succeeded on a closed queue")
	}
	// Put on a closed queue still panics; TryPut is the graceful path.
	defer func() {
		if recover() == nil {
			t.Fatal("Put on closed queue should panic")
		}
	}()
	q.Put(9)
}
