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
	onExit    *Event // lazily created by Done()

	id, regIdx int32 // regIdx: position in e.procs, maintained on spawn/exit
	done       bool  // packed with them: a Proc stays in the 80-byte class
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Park suspends the process, switching back to Run's loop, until a wake-up
// has Run resume it: one that a primitive schedules (Sleep, Event.Wait, ...),
// or one that callbacks the process started schedule with WakeAfter — which
// is how an operation built as a chain of events serves a process too: the
// chain's last timed step is the caller's wake-up, in the slot one more
// callback would have had. on, a string or a Stringer, names the wait in
// deadlock reports. If Run stops the coroutine instead (or already has, and
// this is a deferred call blocking during the unwinding), the process unwinds.
// Only the running process may park itself: Park panics when p is not it —
// called from a bare callback, from another process, or on a handle whose
// process has not started.
func (p *Proc) Park(on interface{}) {
	if p != p.e.cur {
		panic("sim: " + p.name + " blocks outside its own process")
	}
	p.blockedOn = on
	if !p.co.yield(struct{}{}) {
		panic(unwind{})
	}
}

// WakeAfter schedules the wake-up of p, which is parked or about to park,
// after d (behind the events pending now when d <= 0). A process has at most
// one wake-up pending.
func (p *Proc) WakeAfter(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+Time(d), p, nil)
}

// Sleep suspends the process for virtual duration d. Negative or zero d
// yields: the process is rescheduled at the current time behind already
// pending same-time events.
func (p *Proc) Sleep(d Duration) {
	p.WakeAfter(d)
	p.Park("sleeping")
}

// Yield reschedules the process behind all events pending at the current
// virtual time.
func (p *Proc) Yield() { p.Sleep(0) }

// Go spawns a child process at the current time.
func (p *Proc) Go(name string, fn func(p *Proc)) *Proc { return p.e.Go(name, fn) }

// Done returns an Event that triggers when this process's function returns;
// requested after that, it is returned already triggered.
func (p *Proc) Done() *Event {
	if p.onExit == nil {
		p.onExit = NewEvent(p.e)
		if p.done {
			p.onExit.Trigger()
		}
	}
	return p.onExit
}

// Event is a one-shot level-triggered synchronization point: once triggered
// it stays triggered, and all past and future waiters proceed.
type Event struct {
	e *Engine
	// first is the first waiter, held inline — most events that are waited
	// on have one waiter, so waiting allocates nothing — and, once the event
	// has triggered, fired: one word for both keeps an Event at 64 bytes.
	first   *Proc
	waiters []*Proc // the waiters after the first
	subs    []func()
}

// fired is what Event.first points to once the event has triggered.
var fired = new(Proc)

// NewEvent returns an untriggered Event on engine e.
func NewEvent(e *Engine) *Event { return &Event{e: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.first == fired }

// Trigger fires the event, waking all current waiters in FIFO order at the
// current virtual time. Safe to call from processes or bare callbacks;
// calling it twice is a no-op.
func (ev *Event) Trigger() {
	if ev.Triggered() {
		return
	}
	e := ev.e
	if ev.first != nil {
		e.schedule(e.now, ev.first, nil)
	}
	ev.first = fired
	for _, w := range ev.waiters {
		e.schedule(e.now, w, nil)
	}
	ev.waiters = nil
	for _, fn := range ev.subs {
		e.schedule(e.now, nil, fn)
	}
	ev.subs = nil
}

// OnTrigger schedules fn as a bare callback when the event fires (behind
// events already pending at the trigger time). If the event has already
// triggered, fn is scheduled at the current time.
func (ev *Event) OnTrigger(fn func()) {
	if ev.Triggered() {
		ev.e.schedule(ev.e.now, nil, fn)
		return
	}
	ev.subs = append(ev.subs, fn)
}

// WaitFor blocks the calling process until the event triggers or virtual
// duration d elapses, whichever comes first, and reports whether the event
// has triggered.
func (ev *Event) WaitFor(p *Proc, d Duration) bool {
	if !ev.Triggered() {
		ev.orAfter(d, func() { p.WakeAfter(0) })
		p.Park("event wait")
	}
	return ev.Triggered()
}

// WaitForFunc is WaitFor for a waiter that has no process: fn runs — at once
// if the event has triggered, else as a bare callback in the slot the
// process would have resumed in — and asks Triggered for the outcome.
func (ev *Event) WaitForFunc(d Duration, fn func()) {
	if ev.Triggered() {
		fn()
		return
	}
	ev.orAfter(d, func() { ev.e.After(0, fn) })
}

// orAfter calls wake once, when the event triggers or d from now, whichever
// comes first: a waiter has at most one wake-up pending, so the two sources
// feed one callback that schedules it rather than each scheduling their own.
func (ev *Event) orAfter(d Duration, wake func()) {
	first := func() {
		if wake != nil {
			wake()
			wake = nil
		}
	}
	ev.OnTrigger(first)
	ev.e.After(d, first)
}

// Wait blocks the calling process until the event triggers. Returns
// immediately if already triggered.
func (ev *Event) Wait(p *Proc) {
	switch ev.first {
	case fired:
		return
	case nil:
		ev.first = p
	default:
		ev.waiters = append(ev.waiters, p)
	}
	p.Park("event wait")
}

// WaitAll blocks until every event in evs has triggered.
func WaitAll(p *Proc, evs ...*Event) {
	for _, ev := range evs {
		if ev != nil {
			ev.Wait(p)
		}
	}
}

// Counter is a countdown latch: Wait releases when the count reaches zero.
type Counter struct {
	e       *Engine
	n       int
	waiters []*Proc
}

// NewCounter returns a latch initialized to n.
func NewCounter(e *Engine, n int) *Counter { return &Counter{e: e, n: n} }

// Add adjusts the count by delta; if it reaches zero all waiters wake.
// Panics if the count goes negative.
func (c *Counter) Add(delta int) {
	c.n += delta
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

// Done decrements the count by one.
func (c *Counter) Done() { c.Add(-1) }

// Value returns the current count.
func (c *Counter) Value() int { return c.n }

// Wait blocks the calling process until the count is zero.
func (c *Counter) Wait(p *Proc) {
	if c.n == 0 {
		return
	}
	c.waiters = append(c.waiters, p)
	p.Park("counter wait")
}
