package sim

// Proc is the handle a simulated process uses to interact with virtual time.
// A Proc is valid only inside the function passed to Engine.Go.
type Proc struct {
	e    *Engine
	name string
	fn   func(*Proc) // the body
	co   *coro       // the coroutine running it, once it has started

	// blockedOn is non-nil while the process is blocked: a string, or a
	// Stringer asked only when a deadlock report is made. Reports scan the
	// live-process registry, so a block or a wake maintains no map.
	blockedOn interface{}

	id, regIdx int32 // regIdx: position in e.procs, maintained on spawn/exit
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park suspends the process, switching back to Run's loop, until a wake-up
// that a primitive schedules (Sleep, Event.Wait, ...) or an awaited chain's
// end (Await) resumes it. on, a string or a Stringer, names the wait in
// deadlock reports. If Run stops the coroutine instead (or already has, and
// this is a deferred call blocking during the unwinding), the process
// unwinds. Only the running process may park itself: park panics when p is
// not it — called from a bare callback, from another process, or on a
// handle whose process has not started.
func (p *Proc) park(on interface{}) {
	if p != p.e.cur {
		panic("sim: " + p.name + " blocks outside its own process")
	}
	p.blockedOn = on
	if !p.co.yield(struct{}{}) {
		panic(unwind{})
	}
}

// awaiter is the record of one Await, recycled on its engine.
type awaiter struct {
	p                 *Proc
	ok, ended, parked bool
	done              func(ok bool) // bound once: end
}

// end is the awaited chain's continuation: it hands over ok and, if the
// process has parked, switches to it from the chain's last callback.
func (a *awaiter) end(ok bool) {
	a.ok, a.ended = ok, true
	if a.parked {
		e := a.p.e
		if !e.inRun || e.cur != nil {
			panic("sim: the chain " + a.p.name + " awaits ended outside a bare callback")
		}
		e.switchTo(a.p)
	}
}

// Await is how a process waits on an operation built as a chain of events:
// it calls start with the chain's continuation done and returns the ok that
// done is handed. Unless the chain ended before start returned, the process
// parks, with on (a string or a Stringer) naming the wait in deadlock
// reports, and the chain's last step, a bare callback calling done, resumes
// it in that callback's slot, where the process would have returned had it
// run the chain's steps itself: no event of its own, one resume. start must
// not block, and done must be called once.
func (p *Proc) Await(on interface{}, start func(done func(ok bool))) bool {
	e := p.e
	var a *awaiter
	if n := len(e.awaiters); n > 0 {
		a, e.awaiters = e.awaiters[n-1], e.awaiters[:n-1]
	} else {
		a = new(awaiter)
		a.done = a.end
	}
	a.p, a.ended, a.parked = p, false, false
	start(a.done)
	if !a.ended {
		a.parked = true
		p.park(on)
	}
	ok := a.ok
	a.p = nil
	e.awaiters = append(e.awaiters, a)
	return ok
}

// Sleep suspends the process for virtual duration d. Negative or zero d
// yields: the process is rescheduled at the current time behind already
// pending same-time events.
func (p *Proc) Sleep(d Duration) {
	p.e.schedule(p.e.now+Time(max(d, 0)), p, nil)
	p.park("sleeping")
}

// Yield reschedules the process behind all events pending at the current
// virtual time.
func (p *Proc) Yield() { p.Sleep(0) }

// Event is a one-shot level-triggered synchronization point: once triggered
// it stays triggered, and all past and future waiters proceed.
type Event struct {
	e *Engine
	// first is the first waiter, held inline — most events that are waited
	// on have one waiter, so waiting allocates nothing — and, once the event
	// has triggered, fired: one field for both keeps an Event at 48 bytes.
	first   waiter
	waiters []waiter // the waiters after the first
}

// waiter is one waiter of an Event: a process (Wait) or a callback
// (WaitFunc), in one queue.
type waiter struct {
	p  *Proc
	fn func()
}

// fired is what Event.first names once the event has triggered.
var fired = new(Proc)

// NewEvent returns an untriggered Event on engine e.
func NewEvent(e *Engine) *Event { return &Event{e: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.first.p == fired }

// Trigger fires the event, waking all current waiters in FIFO order at the
// current virtual time. Safe to call from processes or bare callbacks;
// calling it twice is a no-op.
func (ev *Event) Trigger() {
	if ev.Triggered() {
		return
	}
	e := ev.e
	if w := ev.first; w.p != nil || w.fn != nil {
		e.schedule(e.now, w.p, w.fn)
	}
	ev.first = waiter{p: fired}
	for _, w := range ev.waiters {
		e.schedule(e.now, w.p, w.fn)
	}
	ev.waiters = nil
}

// wait queues w behind the event's earlier waiters.
func (ev *Event) wait(w waiter) {
	if ev.first.p == nil && ev.first.fn == nil {
		ev.first = w
	} else {
		ev.waiters = append(ev.waiters, w)
	}
}

// Wait blocks the calling process until the event triggers. Returns
// immediately if already triggered.
func (ev *Event) Wait(p *Proc) {
	if ev.Triggered() {
		return
	}
	ev.wait(waiter{p: p})
	p.park("event wait")
}

// WaitFunc is Wait for a waiter that has no process: fn runs at once if the
// event has triggered, else as a bare callback in the slot Wait's process
// would have resumed in. Processes and callbacks wait in one queue, so they
// wake in the order they began to wait. fn must not block.
func (ev *Event) WaitFunc(fn func()) {
	if ev.Triggered() {
		fn()
		return
	}
	ev.wait(waiter{fn: fn})
}

// Signal is a reusable broadcast: every Broadcast wakes the processes then
// waiting, in the order they waited, and leaves the signal ready for the
// next round — where a fresh Event per round would allocate the event and
// its waiter slice each time. Gen names a round, so that a process that
// checks for work and then waits misses no broadcast in between: a Wait
// for a round that has already ended returns at once.
type Signal struct {
	e       *Engine
	gen     uint64
	waiters []sigWaiter
}

// sigWaiter is one waiting process and, for WaitUntil, its guard.
type sigWaiter struct {
	p     *Proc
	ready func() bool
}

// NewSignal returns a signal on engine e, in its first round.
func NewSignal(e *Engine) *Signal { return &Signal{e: e} }

// Gen returns the current round: the number of broadcasts so far.
func (s *Signal) Gen() uint64 { return s.gen }

// String names a wait on the signal in deadlock reports.
func (s *Signal) String() string { return "signal wait" }

// Broadcast ends the round: it schedules one wake-up per waiter at the
// current time, in wait order — the slots Event.Trigger gives its waiters —
// and keeps its waiter slice for the next round. Safe to call from
// processes or bare callbacks.
func (s *Signal) Broadcast() {
	s.gen++
	e := s.e
	for _, w := range s.waiters {
		e.schedule(e.now, w.p, nil).ready = w.ready
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Wait blocks the calling process until the round after gen begins;
// it returns at once if that has already happened.
func (s *Signal) Wait(p *Proc, gen uint64) {
	if gen == s.gen {
		s.waiters = append(s.waiters, sigWaiter{p: p})
		p.park(s)
	}
}

// WaitUntil blocks the calling process until ready reports true, asking it
// at every broadcast from round gen on — at once for each round already
// ended. It is the loop "Wait, then re-check" without its cost: Run calls
// ready at each wake-up in the slot the process would have resumed in, and
// when ready declines, the process waits again in that slot without being
// switched to, so no event moves and Resumed counts only the wake-up that
// returns. ready runs on the engine loop like a bare callback: it must not
// block, and its panic is Run's error under the waiter's name. What it
// finds it hands to the process through the variables it captures.
func (s *Signal) WaitUntil(p *Proc, gen uint64, ready func() bool) {
	for ; gen != s.gen; gen = s.gen {
		if ready() {
			return
		}
	}
	s.waiters = append(s.waiters, sigWaiter{p, ready})
	p.park(s)
}

// Counter is a countdown latch: Wait releases when the count reaches zero.
type Counter struct {
	e       *Engine
	n       int
	waiters []*Proc
}

// NewCounter returns a latch initialized to n.
func NewCounter(e *Engine, n int) *Counter { return &Counter{e: e, n: n} }

// Done decrements the count by one; if it reaches zero all waiters wake.
// Panics if the count goes negative.
func (c *Counter) Done() {
	c.n--
	if c.n < 0 {
		panic("sim: Counter went negative")
	}
	if c.n == 0 {
		for _, w := range c.waiters {
			c.e.schedule(c.e.now, w, nil)
		}
		c.waiters = nil
	}
}

// Wait blocks the calling process until the count is zero.
func (c *Counter) Wait(p *Proc) {
	if c.n == 0 {
		return
	}
	c.waiters = append(c.waiters, p)
	p.park("counter wait")
}
