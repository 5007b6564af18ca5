package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(7 * time.Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(12 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
		p.Yield()
		order = append(order, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a1 b1 a2 b2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.GoAfter(fmt.Sprintf("p%d", i), 3*time.Millisecond, func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() string {
		e := NewEngine()
		var log []string
		q := NewQueue[int](e)
		for i := 0; i < 4; i++ {
			i := i
			e.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Millisecond)
					q.Put(i*10 + j)
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for k := 0; k < 12; k++ {
				v, _ := q.Get(p)
				log = append(log, fmt.Sprintf("%v:%d", p.Now(), v))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			ev.Wait(p)
			woke++
		})
	}
	e.GoAfter("trigger", time.Millisecond, func(p *Proc) { ev.Trigger() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
	// Waiting after the trigger returns immediately.
	if !ev.Triggered() {
		t.Fatal("event should stay triggered")
	}
}

func TestEventDoubleTriggerNoop(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Go("p", func(p *Proc) {
		ev.Trigger()
		ev.Trigger()
		ev.Wait(p) // returns immediately
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, 3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		e.GoAfter("dec", d, func(p *Proc) { c.Done() })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(3 * time.Millisecond); doneAt != want {
		t.Fatalf("doneAt = %v, want %v", doneAt, want)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Done()
}

func TestQueueFIFOOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Go("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(i)
		}
	})
	e.Go("cons", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed early")
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

func TestQueueBlockedGettersServedInOrder(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		e.Go(name, func(p *Proc) {
			v, _ := q.Get(p)
			got = append(got, fmt.Sprintf("%s=%d", p.Name(), v))
		})
	}
	e.GoAfter("prod", time.Millisecond, func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[g0=0 g1=1 g2=2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQueueClose(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	results := make(map[string]bool)
	e.Go("getter", func(p *Proc) {
		_, ok := q.Get(p)
		results["blocked"] = ok
	})
	e.GoAfter("closer", time.Millisecond, func(p *Proc) {
		q.Put(42)
		q.Close()
	})
	e.GoAfter("late", 2*time.Millisecond, func(p *Proc) {
		_, ok := q.Get(p)
		results["late"] = ok
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The blocked getter was waiting when Put happened, so it gets the item.
	if !results["blocked"] {
		t.Error("blocked getter should have received the item")
	}
	if results["late"] {
		t.Error("late getter should see closed queue")
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "link", 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	if fmt.Sprint(finish) != fmt.Sprint(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	if r.BusyTime() != Time(30*time.Millisecond) {
		t.Fatalf("busy = %v, want 30ms", r.BusyTime())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dma", 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	if fmt.Sprint(finish) != fmt.Sprint(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	ev := NewEvent(e)
	e.Go("stuck", func(p *Proc) { ev.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", dl.Blocked)
	}
	if got, want := err.Error(), "sim: deadlock at t=0s: 1 blocked process(es): ["+dl.Blocked[0]+"]"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("stopped")
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop(sentinel)
	})
	e.GoAfter("never", time.Hour, func(p *Proc) {
		t.Error("should not run after Stop")
	})
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(4*time.Millisecond, func() { at = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(4*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestProcDoneEvent(t *testing.T) {
	e := NewEngine()
	var observed Time
	worker := e.Go("worker", func(p *Proc) {
		p.Sleep(9 * time.Millisecond)
	})
	done := worker.Done()
	e.Go("watcher", func(p *Proc) {
		done.Wait(p)
		observed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != Time(9*time.Millisecond) {
		t.Fatalf("observed = %v, want 9ms", observed)
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	depth := 0
	var spawn func(p *Proc, d int)
	spawn = func(p *Proc, d int) {
		if d > depth {
			depth = d
		}
		if d == 5 {
			return
		}
		child := p.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			spawn(c, d+1)
		})
		child.Done().Wait(p)
	}
	e.Go("root", func(p *Proc) { spawn(p, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Millisecond).String(); got != "1.5s" {
		t.Fatalf("String = %q", got)
	}
	if got := Time(2 * time.Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestProcessPanicBecomesRunError(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	err := e.Run()
	var pp *ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("err = %v, want ProcPanicError", err)
	}
	if pp.Proc != "boom" || fmt.Sprint(pp.Value) != "kaboom" {
		t.Fatalf("panic error = %+v", pp)
	}
}
