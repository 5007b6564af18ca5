package sim

// Proc is the handle a simulated process uses to interact with virtual time.
// A Proc is valid only inside the function passed to Engine.Go.
type Proc struct {
	e    *Engine
	name string
	fn   func(*Proc) // the body
	co   *coro       // the coroutine running it, once it has started

	// blockReason is non-empty while the process is blocked; it doubles as
	// the lazy replacement for a blocked-process map (deadlock reports scan
	// the live-process registry instead of maintaining a map on every
	// block/wake).
	blockReason string
	onExit      *Event // lazily created by Done()

	id, regIdx int32 // regIdx: position in e.procs, maintained on spawn/exit
	done       bool  // packed with them: a Proc stays in the 80-byte class
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// block suspends the process, switching back to Run's loop, until a
// scheduled wake-up (or a primitive) has Run resume it. reason appears in
// deadlock reports. If Run stops the coroutine instead — or already has, and
// this is a deferred call blocking during the unwinding — the process unwinds.
func (p *Proc) block(reason string) {
	p.blockReason = reason
	if !p.co.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Sleep suspends the process for virtual duration d. Negative or zero d
// yields: the process is rescheduled at the current time behind already
// pending same-time events.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+Time(d), p, nil)
	p.block("sleeping")
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
// has triggered. A process has at most one wake-up pending, so the timeout
// is built from an auxiliary one-shot event fed by both sources rather than
// a second direct wake.
func (ev *Event) WaitFor(p *Proc, d Duration) bool {
	if ev.Triggered() {
		return true
	}
	fire := NewEvent(ev.e)
	ev.OnTrigger(fire.Trigger)
	ev.e.After(d, fire.Trigger)
	fire.Wait(p)
	return ev.Triggered()
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
	p.block("event wait")
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
	p.block("counter wait")
}
