// Package sim implements a deterministic discrete-event simulation engine:
// processes for things that loop, events for timed operations, goroutines
// recycled. A component with control flow — a CPU worker, a GPU manager,
// anything that stages and sends in a loop — is a process (Engine.Go): a
// function on a goroutine, blocking in virtual time. A timed operation
// without control flow — a kernel, a DMA, a message handler that only updates
// state — is a chain of bare callbacks (Engine.After, Resource.AcquireFunc)
// run inline by whichever goroutine is dispatching.
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
// Fast path: a blocking process's goroutine pops and dispatches the next
// event itself, handing control directly to the process it wakes; Run only
// monitors for quiescence. An exiting process leaves its goroutine, stack
// already grown, to the next one to start; Run ends them all as it returns.
// Events are recycled and name their process without a closure, so the
// steady-state hot path allocates only the Proc of each spawn.
package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
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
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the simulation kernel. Create one with NewEngine, spawn the root
// process(es) with Go, then call Run.
type Engine struct {
	mu   sync.Mutex
	cond *sync.Cond

	// now is the virtual clock. Written only while dispatching (single
	// threaded by construction), read lock-free by Now so the running
	// process never touches the mutex just to timestamp something.
	now atomic.Int64

	seq     uint64
	queue   []*event // binary min-heap on (at, seq)
	free    []*event // recycled events; hot-path scheduling never allocates
	running int      // processes (or bare callbacks) currently executing

	procs   []*Proc // live processes, maintained on spawn/exit only
	procSeq int

	// idle holds the goroutines whose process has exited, most recent last,
	// for the next process to start on; exited is how they report their end.
	idle   []worker
	exited chan struct{}

	stopped bool
	stopErr error
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{exited: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Now returns the current virtual time. It is safe to call from any
// process and never takes the engine lock.
func (e *Engine) Now() Time { return Time(e.now.Load()) }

// pushEventLocked inserts ev into the heap. Caller must hold e.mu.
func (e *Engine) pushEventLocked(ev *event) {
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

// popEventLocked removes and returns the earliest event. Caller must hold
// e.mu and guarantee the queue is non-empty.
func (e *Engine) popEventLocked() *event {
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

// scheduleLocked enqueues, for time at, the start or wake-up of p or else
// the bare callback fn, and gives it the next sequence number. Events are
// recycled, so scheduling allocates nothing. Caller must hold e.mu.
func (e *Engine) scheduleLocked(at Time, p *Proc, fn func()) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev, e.free = e.free[n-1], e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.proc, ev.fn = at, e.seq, p, fn
	e.seq++
	e.pushEventLocked(ev)
}

// dispatchLocked drives the simulation while no process is runnable: it
// pops events in (at, seq) order until one hands control to a process, the
// queue drains, or the engine stops. It runs on whichever goroutine just
// made running reach zero (a blocking or exiting process, or Run itself),
// which makes block→wake a direct handoff. Caller must hold e.mu; the lock
// is dropped and retaken around bare callbacks.
func (e *Engine) dispatchLocked() {
	for e.running == 0 && !e.stopped && len(e.queue) > 0 {
		ev := e.popEventLocked()
		e.now.Store(int64(ev.at))
		e.running = 1
		p, fn := ev.proc, ev.fn
		ev.proc, ev.fn = nil, nil
		e.free = append(e.free, ev)
		if p != nil {
			// Direct handoff: transfer the running count to p without
			// leaving the lock. The buffered send cannot block: a goroutine
			// has at most one pending start or wake-up.
			if p.w == nil {
				p.w = e.workerLocked()
			}
			p.blockReason = ""
			p.w <- p
			return
		}
		e.mu.Unlock()
		e.call(fn)
		e.mu.Lock()
		e.running--
	}
	if e.running == 0 {
		// Quiescent (drained or stopped): wake Run to finish up.
		e.cond.Signal()
	}
}

// call runs a bare callback. Its panic, like a process's, becomes Run's
// error — not one of whichever process's goroutine was dispatching.
func (e *Engine) call(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.Stop(&ProcPanicError{Proc: "(event)", Value: r, Stack: debug.Stack()})
		}
	}()
	fn()
}

// worker is the mailbox of one engine goroutine, which runs the processes
// sent on it one after another; while a process is blocked the same channel
// carries its wake-ups. A nil tells it to end: Run has returned.
type worker chan *Proc

// workerLocked returns the most recently idled goroutine, or starts one.
func (e *Engine) workerLocked() worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return w
	}
	w := make(worker, 1)
	go func() {
		defer func() { e.exited <- struct{}{} }()
		for p := <-w; p != nil; p = <-w {
			e.runProc(w, p)
		}
	}()
	return w
}

// runProc executes p on w's goroutine, which owns the running count until
// p blocks or exits. On exit the goroutine goes idle *before* dispatching,
// so a process started by that very dispatch reuses it without a switch.
func (e *Engine) runProc(w worker, p *Proc) {
	defer func() {
		r := recover()
		if p.blockReason != "" {
			return // still blocked: Run is unwinding p, nothing left to account
		}
		if r != nil {
			// A panicking process aborts the whole simulation: Run returns
			// the panic as an error instead of crashing the host program.
			e.Stop(&ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
		p.done = true
		if p.onExit != nil {
			p.onExit.Trigger()
		}
		e.mu.Lock()
		e.unregisterLocked(p)
		e.idle = append(e.idle, w)
		e.running--
		e.dispatchLocked()
		e.mu.Unlock()
	}()
	p.fn(p)
}

// Go spawns a new process that will begin executing fn at the current
// virtual time, after the spawning process next blocks. The name is used in
// deadlock reports and traces. Calls that fn defers must not block (see Run).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc { return e.GoAfter(name, 0, fn) }

// GoAfter spawns a process that begins executing fn after delay d.
func (e *Engine) GoAfter(name string, d Duration, fn func(p *Proc)) *Proc {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.procSeq++
	p := &Proc{e: e, name: name, id: int32(e.procSeq), fn: fn, regIdx: int32(len(e.procs))}
	e.procs = append(e.procs, p)
	e.scheduleLocked(e.Now()+Time(d), p, nil)
	return p
}

// Spawned returns the number of processes spawned so far.
func (e *Engine) Spawned() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.procSeq
}

// unregisterLocked removes p from the live-process registry (swap-remove).
func (e *Engine) unregisterLocked(p *Proc) {
	last := len(e.procs) - 1
	e.procs[p.regIdx] = e.procs[last]
	e.procs[p.regIdx].regIdx = p.regIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// After schedules a bare callback (not a process) at now+d. The callback
// runs inline on the dispatching goroutine and must not block; it may
// schedule further events, trigger Events, or push to Queues.
func (e *Engine) After(d Duration, fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scheduleLocked(e.Now()+Time(d), nil, fn)
}

// Stop aborts the simulation: Run returns err once all currently runnable
// work drains. Pending events are discarded.
func (e *Engine) Stop(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
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

// DeadlockError reports that processes remain blocked with no pending events.
type DeadlockError struct {
	Now     Time
	Blocked []string // "procName#id: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d blocked process(es): %v", d.Now, len(d.Blocked), d.Blocked)
}

// Run drives the simulation until the event queue drains and no process is
// runnable. It returns a *DeadlockError if processes remain blocked at the
// end, or the error passed to Stop. No goroutine the engine started
// outlives Run, whichever way it ends: a process still parked is unwound
// (runtime.Goexit), so its deferred calls run, up to one that blocks.
//
// Run kicks off the first dispatch and then only monitors for quiescence:
// all further dispatching happens on the goroutines of blocking processes.
func (e *Engine) Run() error {
	e.mu.Lock()
	e.dispatchLocked()
	for e.running > 0 || (!e.stopped && len(e.queue) > 0) {
		e.cond.Wait()
	}
	err := e.stopErr
	left := e.idle // the goroutines still alive: idle, or parked in block
	e.idle = nil
	var names []string
	for _, p := range e.procs {
		if p.blockReason != "" {
			left = append(left, p.w)
			names = append(names, fmt.Sprintf("%s#%d: %s", p.name, p.id, p.blockReason))
		}
	}
	if !e.stopped && len(names) > 0 {
		sort.Strings(names)
		err = &DeadlockError{Now: e.Now(), Blocked: names}
	}
	e.mu.Unlock()
	for _, w := range left {
		// An idle goroutine returns; a parked process unwinds with Goexit —
		// one at a time, because its deferred calls touch simulation state.
		w <- nil
		<-e.exited
	}
	return err
}
