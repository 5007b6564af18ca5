// Package sim implements a deterministic discrete-event simulation engine:
// processes for things that loop, events for timed operations, one thread of
// control. A loop — a CPU worker, a GPU manager, a communication thread — is
// a process (Engine.Go): a function on a coroutine, blocking in virtual
// time. An operation for one piece of work — a kernel, a DMA, a message, a
// handler, staging one task's data — is a chain of bare callbacks
// (Engine.After, Resource.AcquireFunc, Queue.GetFunc, Event.WaitFunc) run
// inline by the engine's loop; a process that needs
// one waits on it with Proc.Await, and the chain's last step resumes it.
//
// Determinism contract: exactly one process or callback executes at any
// instant. A process runs until it blocks (Sleep, Event.Wait, Queue.Get,
// ...); only then is the next event popped. Events fire in (time, sequence
// number) order, and an event takes its number when it is scheduled. That is
// what lets an operation change form and move no result: the event form
// schedules one event per point where the process form blocked, at the
// instant the process form scheduled its wake-up — a resource grant when the
// holder releases, not when the waiter asked — so equal-time ties break as
// before and a simulation produces bit-identical traces on every run.
//
// One loop: Engine.Run pops every event, runs a bare callback inline and
// resumes a process with a coroutine switch (iter.Pull); a process that
// blocks switches back. A guarded wake-up (Signal.WaitUntil) first asks its
// guard, inline: one that finds nothing to do leaves the process parked,
// waiting again in that slot, and costs no switch. Nothing else runs, so an engine has no lock: its
// state, and everything its processes and callbacks touch — the unlocked
// free lists of the layers above included — is accessed by one thread of
// control at a time, by construction. The other side of that rule is that
// nothing outside a Run — another goroutine — may touch an engine or its
// primitives while Run is executing. An exiting process leaves its
// coroutine, stack already grown, to the next one to start; Run ends them
// all as it returns. Events are recycled and name their process or callback
// without a closure of their own, so scheduling allocates nothing: what
// allocates is a spawn (its Proc, and its coroutine while no exited process
// has left one), a blocked Queue.Get (its slot) and an Event's waiters after
// the first; a Signal keeps its waiter slice from round to round, an Await
// its record on the engine, and a chain's callbacks cost what binding them
// costs its caller — nothing, when they are bound once on a recycled record.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for readability in simulation code.
type Duration = time.Duration

// String formats the virtual time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the virtual time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// event is a pending occurrence in the priority queue: the start (its first
// event) or a wake-up of proc, with no closure, or else the bare callback fn.
// A wake-up with ready set is guarded (Signal.WaitUntil): Run asks ready
// before it switches to proc.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	proc  *Proc
	ready func() bool
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the simulation kernel. Create one with NewEngine, spawn the root
// process(es) with Go, then call Run. It has no lock: see the package comment.
//
// Pending events live in two places. An event for a later time goes to the
// heap; one for the current instant goes to the lane, a FIFO, with no heap
// push or pop. That moves nothing: a lane event took its number at now,
// after every heap event for now was numbered (before the clock reached
// it), so Run serves the heap's events at now first and then the lane in
// arrival order — (time, sequence number) order, as one heap would.
type Engine struct {
	now   Time // the virtual clock, advanced only by Run's loop
	seq   uint64
	queue []*event // binary min-heap on (at, seq): the events after now
	lane  ring     // the events at now, in sequence order
	free  []*event // recycled events; hot-path scheduling never allocates

	// onPop, when set, sees each event Run pops; tests use it.
	onPop func(at Time, seq uint64)

	procs    []*Proc    // live processes, maintained on spawn/exit only
	awaiters []*awaiter // the records of ended Awaits, for the next
	cur      *Proc      // the process Run has switched to, nil between switches
	procSeq  int
	resumed  int
	popped   int

	// idle holds the coroutines whose process has exited, most recent last,
	// for the next process to start on.
	idle []*coro

	inRun   bool
	stopped bool
	stopErr error
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return new(Engine) }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// pushEvent inserts ev into the heap.
func (e *Engine) pushEvent(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// popEvent removes and returns the earliest event of a non-empty queue.
func (e *Engine) popEvent() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && eventLess(q[l], q[s]) {
			s = l
		}
		if r < n && eventLess(q[r], q[s]) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	e.queue = q
	return top
}

// next removes and returns the earliest pending event, or nil when none is
// left: the heap's top while it is due now, else the lane's head, else the
// heap's top, which advances the clock.
func (e *Engine) next() *event {
	if len(e.queue) > 0 && (e.lane.n == 0 || e.queue[0].at == e.now) {
		return e.popEvent()
	}
	if e.lane.n > 0 {
		return e.lane.pop()
	}
	return nil
}

// ring is a FIFO of events on a power-of-two ring buffer.
type ring struct {
	buf     []*event
	head, n int
}

func (r *ring) push(ev *event) {
	if r.n == len(r.buf) {
		buf := make([]*event, max(2*len(r.buf), 64))
		copy(buf[copy(buf, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *ring) pop() *event {
	ev := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// schedule enqueues, for time at (not before now), the start or wake-up of p
// or else the bare callback fn, and gives it the next sequence number: in
// the lane when at is now, else in the heap. Events are recycled, so
// scheduling allocates nothing.
func (e *Engine) schedule(at Time, p *Proc, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.proc, ev.fn = at, e.seq, p, fn
	e.seq++
	if at == e.now {
		e.lane.push(ev)
	} else {
		e.pushEvent(ev)
	}
	return ev
}

// call runs a bare callback fn, or else the guard ready of a wake-up of the
// process named name, and returns ready's verdict. A panic in either, like
// a process's, becomes Run's error: under the name "(event)" for a
// callback, under the waiter's name for a guard, which then returns false.
func (e *Engine) call(name string, fn func(), ready func() bool) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.stop(&ProcPanicError{Proc: name, Value: r, Stack: debug.Stack()})
		}
	}()
	if ready != nil {
		return ready()
	}
	fn()
	return true
}

// coro is one engine coroutine. It runs the processes handed to it in p one
// after another: Run switches to it with next, the process it is running
// switches back with yield, and stop makes a pending yield return false.
type coro struct {
	p     *Proc
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// coroutine returns the coroutine that is to run p: the most recently idled
// one, or a new one.
func (e *Engine) coroutine(p *Proc) *coro {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		c.p = p
		return c
	}
	c := &coro{p: p}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for e.runProc(c.p) {
			// Idle before switching back, so that a process started by the
			// very next event reuses this coroutine.
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return // Run is returning
			}
		}
	})
	return c
}

// unwind is what a blocked process panics with when Run, returning, stops
// its coroutine: a panic, which runProc recovers, so that the deferred calls
// of the process run — and not runtime.Goexit, which iter.Pull would pass on
// to the goroutine that called Run.
type unwind struct{}

// runProc executes p to its end on the current coroutine and reports whether
// the coroutine may take another process; it may not once Run has stopped it.
func (e *Engine) runProc(p *Proc) (reusable bool) {
	defer func() {
		r := recover()
		if p.blockedOn != nil {
			return // still blocked: Run is unwinding p, nothing left to account
		}
		if r != nil {
			// A panicking process aborts the whole simulation: Run returns
			// the panic as an error instead of crashing the host program.
			e.stop(&ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
		e.unregister(p)
		reusable = true
	}()
	p.fn(p)
	return
}

// Go spawns a new process that will begin executing fn at the current
// virtual time, after the spawning process next blocks. The name is used in
// deadlock reports and traces.
//
// When Run returns with the process still blocked, the blocking call panics
// with a private value so that the calls fn deferred run; one of them that
// blocks again is cut short the same way, and the ones before it still run.
// fn may recover panics of its own, but the unwinding is raised again at
// every blocking call it makes afterwards, so it must not loop on them
// forever. runtime.Goexit in fn (t.FailNow in a test, say) ends the goroutine
// that called Run, not only the process: a coroutine passes it on.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{e: e, name: name, id: int32(e.procSeq), fn: fn, regIdx: int32(len(e.procs))}
	e.procs = append(e.procs, p)
	e.schedule(e.now, p, nil)
	return p
}

// switchTo starts or wakes p and runs it until it blocks or exits.
func (e *Engine) switchTo(p *Proc) {
	if p.co == nil {
		p.co = e.coroutine(p)
	}
	p.blockedOn = nil
	e.resumed++
	e.cur = p
	p.co.next()
	e.cur = nil
}

// Spawned returns the number of processes spawned so far.
func (e *Engine) Spawned() int { return e.procSeq }

// Resumed returns the number of times Run has switched to a process, to
// start it or to wake it: the coroutine switches (two each) a run has paid.
func (e *Engine) Resumed() int { return e.resumed }

// Popped returns the number of events Run has popped: starts, wake-ups
// (guarded ones its guard declined included) and bare callbacks.
func (e *Engine) Popped() int { return e.popped }

// unregister removes p from the live-process registry (swap-remove).
func (e *Engine) unregister(p *Proc) {
	last := len(e.procs) - 1
	e.procs[p.regIdx] = e.procs[last]
	e.procs[p.regIdx].regIdx = p.regIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// After schedules a bare callback (not a process) at now+d (a negative d
// counts as zero). The callback runs inline in Run's loop and must not
// block; it may schedule further events, trigger Events, or push to Queues.
func (e *Engine) After(d Duration, fn func()) { e.schedule(e.now+Time(max(d, 0)), nil, fn) }

// stop aborts the simulation: Run returns err once the process or callback
// now running blocks or returns. Pending events are discarded.
func (e *Engine) stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// ProcPanicError reports that a simulation process panicked; Run returns
// it after stopping the simulation.
type ProcPanicError struct {
	Proc  string
	Value interface{}
	Stack []byte
}

func (p *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", p.Proc, p.Value, p.Stack)
}

// Unwrap returns the panic value when it is an error, so that errors.As
// reaches a typed panic through Run's result.
func (p *ProcPanicError) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// DeadlockError reports that processes remain blocked with no pending events.
type DeadlockError struct {
	Now     Time
	Blocked []string // "procName#id: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d blocked process(es): %v", d.Now, len(d.Blocked), d.Blocked)
}

// Run drives the simulation: it is the one loop that pops events in (at,
// seq) order, runs a bare callback inline and switches to a process until
// that process blocks or exits, until the queue drains or the engine stops.
// It returns a *DeadlockError if processes remain blocked at the end, or the
// *ProcPanicError of a process or callback that panicked. No coroutine the
// engine made outlives Run, whichever way it ends: a process still blocked
// is unwound (see Go), so its deferred calls run. Run panics if called from
// one of its own processes or callbacks.
func (e *Engine) Run() error {
	if e.inRun {
		panic("sim: Run is not re-entrant")
	}
	e.inRun = true
	for !e.stopped {
		ev := e.next()
		if ev == nil {
			break
		}
		e.popped++
		if e.onPop != nil {
			e.onPop(ev.at, ev.seq)
		}
		e.now = ev.at
		p, fn, ready := ev.proc, ev.fn, ev.ready
		ev.proc, ev.fn, ev.ready = nil, nil, nil
		e.free = append(e.free, ev)
		if p == nil {
			e.call("(event)", fn, nil)
			continue
		}
		if ready != nil && !e.call(p.name, nil, ready) {
			// A guarded wake-up that would find nothing: p stays parked and
			// waits again in this slot, as its loop would have done had it
			// been switched to — with no switch.
			s := p.blockedOn.(*Signal)
			s.waiters = append(s.waiters, sigWaiter{p, ready})
			continue
		}
		e.switchTo(p)
	}
	err := e.stopErr
	left := e.idle // the coroutines still alive: idle, or parked in block
	e.idle = nil
	var names []string
	for _, p := range e.procs {
		if p.blockedOn != nil {
			left = append(left, p.co)
			names = append(names, fmt.Sprintf("%s#%d: %v", p.name, p.id, p.blockedOn))
		}
	}
	if !e.stopped && len(names) > 0 {
		sort.Strings(names)
		err = &DeadlockError{Now: e.now, Blocked: names}
	}
	for _, c := range left {
		e.cur = c.p
		c.stop() // an idle coroutine returns; a blocked process unwinds
	}
	e.cur = nil
	e.inRun = false
	return err
}
