package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// Property: a Resource never has more than capacity units in use, and
// always drains completely, for any pattern of concurrent timed uses.
func TestQuickResourceCapacityInvariant(t *testing.T) {
	f := func(durs []uint8, capSeed uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 30 {
			durs = durs[:30]
		}
		capacity := int(capSeed%4) + 1
		e := NewEngine()
		r := NewResource(e, "res", capacity)
		violated := false
		for _, d := range durs {
			d := time.Duration(d%20+1) * time.Millisecond
			e.Go("user", func(p *Proc) {
				r.Acquire(p)
				if r.InUse() > capacity {
					violated = true
				}
				p.Sleep(d)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return !violated && r.InUse() == 0 && r.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Queue delivers every item exactly once and in insertion
// order, regardless of how producers interleave in virtual time.
func TestQuickQueueDeliversAllInOrder(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 25 {
			delays = delays[:25]
		}
		e := NewEngine()
		q := NewQueue[int](e)
		// One producer enqueues sequence numbers at varying times.
		e.Go("prod", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(time.Duration(d%5) * time.Millisecond)
				q.Put(i)
			}
			q.Close()
		})
		var got []int
		e.Go("cons", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual time never goes backwards as observed by any process.
func TestQuickTimeMonotonic(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) > 40 {
			steps = steps[:40]
		}
		e := NewEngine()
		ok := true
		for _, s := range steps {
			s := s
			e.Go("p", func(p *Proc) {
				last := p.Now()
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(s%7) * time.Millisecond)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a process that waits with Signal.WaitUntil goes through the
// same slots as one running the loop it replaces — check, Wait, re-check —
// and is only switched to less: a guarded wake-up whose check fails leaves
// it parked. Processes of two kinds take units of their kind from shared
// counters; callbacks and the processes themselves add units and broadcast
// at random, mostly tied, times. The log of every action, with the engine's
// next sequence number, and the final counters must be equal.
func TestQuickGuardedWaitMatchesPlain(t *testing.T) {
	type step struct {
		at          Duration
		kind, units int
	}
	type proc struct {
		work  []Duration // per task taken, in turn; then the process ends
		gives []int      // units of kind 0 added and broadcast after each task
	}
	type entry struct {
		at   Time
		seq  uint64
		who  int
		what string
	}
	run := func(procs []proc, steps []step, guarded bool) (log []entry, avail [2]int, resumed int) {
		e := NewEngine()
		s := NewSignal(e)
		stop := false
		note := func(who int, what string) { log = append(log, entry{e.Now(), e.seq, who, what}) }
		for i, pr := range procs {
			i, pr, kind := i, pr, i%2
			e.Go("taker", func(p *Proc) {
				took := false
				ready := func() bool {
					if took = avail[kind] > 0; took {
						avail[kind]--
						note(i, "take")
					}
					return took || stop
				}
				for n := range pr.work {
					if guarded {
						if gen := s.Gen(); !ready() {
							s.WaitUntil(p, gen, ready)
						}
					} else {
						for gen := s.Gen(); !ready(); gen = s.Gen() {
							s.Wait(p, gen)
						}
					}
					if !took {
						note(i, "quit")
						return
					}
					note(i, "run")
					p.Sleep(pr.work[n])
					if g := pr.gives[n]; g > 0 {
						avail[0] += g
						s.Broadcast()
					}
				}
			})
		}
		last := Duration(0)
		for _, st := range steps {
			st := st
			last = max(last, st.at)
			e.After(st.at, func() {
				avail[st.kind] += st.units
				note(-1, "give")
				s.Broadcast()
			})
		}
		e.After(last+time.Millisecond, func() {
			stop = true
			note(-1, "stop")
			s.Broadcast()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log, avail, e.Resumed()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := make([]proc, 2+rng.Intn(6))
		for i := range procs {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				procs[i].work = append(procs[i].work, Duration(rng.Intn(3))*time.Microsecond)
				procs[i].gives = append(procs[i].gives, max(0, rng.Intn(4)-2))
			}
		}
		// The first step finds every process waiting and wakes the kind-1
		// ones for nothing, so every schedule has a wake-up to decline.
		steps := []step{{0, 0, 1}}
		for n := rng.Intn(12); n > 0; n-- {
			steps = append(steps, step{Duration(1+rng.Intn(6)) * time.Microsecond, rng.Intn(2), rng.Intn(3)})
		}
		plainLog, plainAvail, plainResumed := run(procs, steps, false)
		guardLog, guardAvail, guardResumed := run(procs, steps, true)
		if !reflect.DeepEqual(plainLog, guardLog) || plainAvail != guardAvail {
			t.Logf("seed %d: logs or counters differ:\nplain %v %v\nguard %v %v", seed, plainLog, plainAvail, guardLog, guardAvail)
			return false
		}
		if guardResumed >= plainResumed {
			t.Logf("seed %d: %d resumes guarded, %d plain", seed, guardResumed, plainResumed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
