package sim

import (
	"testing"
	"time"
)

// timedWait is how a process waits on ev for at most d: it awaits
// WaitForFunc and reports whether the event has triggered.
func timedWait(p *Proc, ev *Event, d Duration) bool {
	return p.Await("event wait", func(done func(bool)) { ev.WaitForFunc(d, func() { done(ev.Triggered()) }) })
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

func TestWaitForFuncTimesOut(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Go("main", func(p *Proc) {
		start := p.Now()
		if timedWait(p, ev, 500*time.Microsecond) {
			t.Error("triggered without a trigger")
		}
		if got := p.Now() - start; got != Time(500*time.Microsecond) {
			t.Errorf("timed out after %v, want 500us", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitForFuncSeesEarlyTrigger(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.After(100*time.Microsecond, ev.Trigger)
	e.Go("main", func(p *Proc) {
		start := p.Now()
		if !timedWait(p, ev, time.Second) {
			t.Error("not triggered despite the trigger")
		}
		if got := p.Now() - start; got != Time(100*time.Microsecond) {
			t.Errorf("woke after %v, want 100us", got)
		}
		// On a triggered event fn runs at once, with no event.
		seq := e.seq
		if !timedWait(p, ev, time.Nanosecond) || e.seq != seq {
			t.Errorf("on a triggered event: %d events scheduled", e.seq-seq)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
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
