package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// Property: a Resource never has more than one holder, and always drains
// completely, for any pattern of concurrent timed uses.
func TestQuickResourceCapacityInvariant(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 30 {
			durs = durs[:30]
		}
		e := NewEngine()
		r := NewResource(e, "res")
		holders, violated := 0, false
		for _, d := range durs {
			d := time.Duration(d%20+1) * time.Millisecond
			e.Go("user", func(p *Proc) {
				acquire(p, r)
				if holders++; holders > 1 {
					violated = true
				}
				p.Sleep(d)
				holders--
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return !violated && !r.busy && len(r.waiters) == 0
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

// Property: the same-instant lane keeps the heap's order. Random programs
// mix bare callbacks after zero and non-zero delays, spawns, Signal
// broadcasts with plain and guarded waiters, Queue puts to process and
// callback getters, and Resource hand-offs, every one issued from processes
// and from callbacks alike, mostly at tied times; every event Run pops must
// come strictly after the one before in (time, sequence number) order.
func TestQuickLaneKeepsHeapOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		pops := recordPops(e)
		sig := NewSignal(e)
		q := NewQueue[int](e)
		res := NewResource(e, "res")
		budget := 200 + rng.Intn(200)
		delay := func() Duration { return Duration(rng.Intn(3)) * time.Microsecond }
		var act func(p *Proc) // one random action: of process p, or of a callback when p is nil
		callback := func() { act(nil) }
		body := func(p *Proc) {
			for budget > 0 {
				act(p)
			}
		}
		act = func(p *Proc) {
			if budget <= 0 {
				return
			}
			budget--
			switch rng.Intn(9) {
			case 0:
				e.After(0, callback)
			case 1:
				e.After(delay(), callback)
			case 2:
				e.After(delay(), func() { e.Go("p", body) })
			case 3:
				sig.Broadcast()
			case 4:
				q.Put(budget)
			case 5:
				if p != nil {
					acquire(p, res)
					p.Sleep(delay())
					res.Release()
					break
				}
				d := delay()
				res.AcquireFunc(func() { e.After(d, func() { res.Release(); act(nil) }) })
			case 6:
				switch {
				case p == nil:
					q.GetFunc(func(int, bool) { act(nil) })
				case rng.Intn(2) == 0:
					q.Get(p)
				default:
					sig.Wait(p, sig.Gen())
				}
			case 7:
				if p != nil {
					sig.WaitUntil(p, sig.Gen(), func() bool { return budget <= 0 || rng.Intn(2) == 0 })
				} else {
					e.Go("p", body)
				}
			default:
				if p != nil {
					p.Sleep(delay())
				} else {
					e.After(0, callback)
					e.After(delay(), callback)
				}
			}
		}
		for i := 0; i < 3; i++ {
			e.Go("p", body)
			e.After(delay(), callback)
		}
		// Whatever is still waiting when the activity dies out is released.
		e.After(time.Second, func() {
			budget = 0
			sig.Broadcast()
			q.Close()
		})
		if err := e.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := 1; i < len(*pops); i++ {
			a, b := (*pops)[i-1], (*pops)[i]
			if b.at < a.at || b.at == a.at && b.seq <= a.seq {
				t.Logf("seed %d: pop %d at (%v, %d) after (%v, %d)", seed, i, b.at, b.seq, a.at, a.seq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
