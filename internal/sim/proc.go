package sim

import "runtime"

// Proc is the handle a simulated process uses to interact with virtual time.
// A Proc is valid only inside the function passed to Engine.Go and must not
// be shared across goroutines.
type Proc struct {
	e    *Engine
	name string
	fn   func(*Proc) // the body
	w    worker      // the goroutine running it, once it has started

	// blockReason is non-empty while the process is blocked; it doubles as
	// the lazy replacement for a blocked-process map (deadlock reports scan
	// the live-process registry instead of maintaining a map on every
	// block/wake). Guarded by e.mu.
	blockReason string
	onExit      *Event // lazily created by Done()

	id, regIdx int32 // regIdx: position in e.procs, maintained on spawn/exit
	done       bool  // packed with them: a Proc stays in the 80-byte class
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.Now() }

// block suspends the process until a scheduled wake-up (or a primitive)
// resumes it. The blocking goroutine dispatches the next event itself —
// handing control directly to whichever process comes next — before
// parking. reason appears in deadlock reports.
func (p *Proc) block(reason string) {
	if p.blockReason != "" {
		runtime.Goexit() // a deferred call blocking while Run unwinds p
	}
	e := p.e
	e.mu.Lock()
	p.blockReason = reason
	e.running--
	e.dispatchLocked()
	e.mu.Unlock()
	// If dispatch popped this process's own wake-up (Yield, zero Sleep,
	// same-timestamp resume), the buffered send already happened and this
	// receive completes without a goroutine switch.
	if <-p.w == nil {
		runtime.Goexit() // Run has returned with p still blocked: unwind
	}
}

// Sleep suspends the process for virtual duration d. Negative or zero d
// yields: the process is rescheduled at the current time behind already
// pending same-time events.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	e.mu.Lock()
	e.scheduleLocked(e.Now()+Time(d), p, nil)
	e.mu.Unlock()
	p.block("sleeping")
}

// Yield reschedules the process behind all events pending at the current
// virtual time.
func (p *Proc) Yield() { p.Sleep(0) }

// Go spawns a child process at the current time.
func (p *Proc) Go(name string, fn func(p *Proc)) *Proc { return p.e.Go(name, fn) }

// Done returns an Event that triggers when this process's function returns.
// It must be requested before the process is spawned or from the process
// itself; requesting it from a third party after the process may already
// have exited is racy in real time (not virtual time) and unsupported.
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
	e         *Engine
	triggered bool
	waiters   []*Proc
	subs      []func()
}

// NewEvent returns an untriggered Event on engine e.
func NewEvent(e *Engine) *Event { return &Event{e: e} }

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool {
	ev.e.mu.Lock()
	defer ev.e.mu.Unlock()
	return ev.triggered
}

// Trigger fires the event, waking all current waiters in FIFO order at the
// current virtual time. Safe to call from processes or bare callbacks;
// calling it twice is a no-op.
func (ev *Event) Trigger() {
	ev.e.mu.Lock()
	defer ev.e.mu.Unlock()
	if ev.triggered {
		return
	}
	ev.triggered = true
	for _, w := range ev.waiters {
		ev.e.scheduleLocked(ev.e.Now(), w, nil)
	}
	ev.waiters = nil
	for _, fn := range ev.subs {
		ev.e.scheduleLocked(ev.e.Now(), nil, fn)
	}
	ev.subs = nil
}

// OnTrigger schedules fn as a bare callback when the event fires (behind
// events already pending at the trigger time). If the event has already
// triggered, fn is scheduled at the current time.
func (ev *Event) OnTrigger(fn func()) {
	ev.e.mu.Lock()
	defer ev.e.mu.Unlock()
	if ev.triggered {
		ev.e.scheduleLocked(ev.e.Now(), nil, fn)
		return
	}
	ev.subs = append(ev.subs, fn)
}

// WaitFor blocks the calling process until the event triggers or virtual
// duration d elapses, whichever comes first, and reports whether the event
// has triggered. A process has a single buffered wake-up slot, so the
// timeout is built from an auxiliary one-shot event fed by both sources
// rather than a second direct wake.
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
	ev.e.mu.Lock()
	if ev.triggered {
		ev.e.mu.Unlock()
		return
	}
	ev.waiters = append(ev.waiters, p)
	ev.e.mu.Unlock()
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
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.n += delta
	if c.n < 0 {
		panic("sim: Counter went negative")
	}
	if c.n == 0 {
		for _, w := range c.waiters {
			c.e.scheduleLocked(c.e.Now(), w, nil)
		}
		c.waiters = nil
	}
}

// Done decrements the count by one.
func (c *Counter) Done() { c.Add(-1) }

// Value returns the current count.
func (c *Counter) Value() int {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.n
}

// Wait blocks the calling process until the count is zero.
func (c *Counter) Wait(p *Proc) {
	c.e.mu.Lock()
	if c.n == 0 {
		c.e.mu.Unlock()
		return
	}
	c.waiters = append(c.waiters, p)
	c.e.mu.Unlock()
	p.block("counter wait")
}
