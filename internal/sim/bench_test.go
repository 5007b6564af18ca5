package sim

import (
	"testing"
	"time"
)

// Microbenchmarks for the engine primitives. Every component of the
// reproduction (GPU engines, DMA channels, GASNet links, schedulers) runs on
// this kernel, so ns/op and allocs/op here bound the wall-clock of every
// experiment in internal/bench. EXPERIMENTS.md records the trajectory.

// BenchmarkEngineSpawn measures spawning and draining b.N no-op processes.
func BenchmarkEngineSpawn(b *testing.B) {
	e := NewEngine()
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Go("child", func(c *Proc) {})
			p.Yield() // let the child run and exit
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSleep measures b.N timer events through a single process.
func BenchmarkEngineSleep(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineYield measures two processes alternating at one timestamp:
// the worst case for engine handoff overhead, since no virtual time passes.
func BenchmarkEngineYield(b *testing.B) {
	e := NewEngine()
	for g := 0; g < 2; g++ {
		e.Go("yielder", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineEventTrigger measures trigger+wake pairs: one waiter
// blocked on an Event, one process triggering it, b.N times.
func BenchmarkEngineEventTrigger(b *testing.B) {
	e := NewEngine()
	evs := make([]*Event, b.N)
	for i := range evs {
		evs[i] = NewEvent(e)
	}
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			evs[i].Wait(p)
		}
	})
	e.Go("trigger", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			evs[i].Trigger()
			p.Yield() // hand control to the waiter
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalIdleWake measures a broadcast to eight idle waiters whose
// guards decline — the runtime's idle CPU workers and GPU managers when
// signalWork finds them nothing to pop: eight wake-up events and no switch.
func BenchmarkSignalIdleWake(b *testing.B) {
	e := NewEngine()
	s := NewSignal(e)
	stop := false
	for i := 0; i < 8; i++ {
		e.Go("idle", func(p *Proc) {
			s.WaitUntil(p, s.Gen(), func() bool { return stop })
		})
	}
	e.Go("broadcaster", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Broadcast()
			p.Yield() // the wake-ups run, and decline
		}
		stop = true
		s.Broadcast()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineQueuePutGet measures a producer/consumer pair handing b.N
// items through a Queue, with the consumer blocking on every item.
func BenchmarkEngineQueuePutGet(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int](e)
	e.Go("cons", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	e.Go("prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Yield() // consumer drains before the next item
		}
		q.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineResourceUse measures contended Acquire/Release handoff:
// two processes sharing a capacity-1 resource for b.N timed uses.
func BenchmarkEngineResourceUse(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "res", 1)
	for g := 0; g < 2; g++ {
		e.Go("user", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
