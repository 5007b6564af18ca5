// Package sim is a type-level stub of the real simulation engine,
// placed at its real import path so golden test packages can exercise
// the analyzers against sim-typed code without pulling in the engine.
package sim

// Time is a virtual-clock instant; Duration a span of virtual time.
type Time int64

// Duration mirrors the engine's virtual duration type.
type Duration = Time

// Engine stubs the discrete-event engine.
type Engine struct{}

// Now returns the virtual clock.
func (e *Engine) Now() Time { return 0 }

// After schedules fn to run inline on the engine loop; fn must not block.
func (e *Engine) After(d Duration, fn func()) {}

// Go spawns a process.
func (e *Engine) Go(name string, fn func(p *Proc)) {}

// Run drives the engine until quiescence.
func (e *Engine) Run() {}

// Proc stubs a simulation process.
type Proc struct{}

// Now returns the virtual clock.
func (p *Proc) Now() Time { return 0 }

// Sleep advances the process's virtual time.
func (p *Proc) Sleep(d Duration) {}

// Yield reschedules the process.
func (p *Proc) Yield() {}

// Event stubs a triggerable event.
type Event struct{}

// NewEvent returns an event on e.
func NewEvent(e *Engine) *Event { return &Event{} }

// Wait blocks until the event triggers.
func (ev *Event) Wait(p *Proc) {}

// WaitFor blocks until trigger or timeout.
func (ev *Event) WaitFor(p *Proc, d Duration) bool { return true }

// OnTrigger registers fn to run inline on trigger; fn must not block.
func (ev *Event) OnTrigger(fn func()) {}

// Trigger fires the event.
func (ev *Event) Trigger() {}

// Counter stubs a countdown latch.
type Counter struct{}

// Wait blocks until the counter drains.
func (c *Counter) Wait(p *Proc) {}

// Queue stubs a blocking queue.
type Queue struct{}

// Get blocks for the next element.
func (q *Queue) Get(p *Proc) (interface{}, bool) { return nil, false }

// Put never blocks.
func (q *Queue) Put(v interface{}) {}

// TryPut never blocks.
func (q *Queue) TryPut(v interface{}) bool { return true }

// Resource stubs a counted resource.
type Resource struct{}

// NewResource returns a resource with n slots on e.
func NewResource(e *Engine, n int) *Resource { return &Resource{} }

// Acquire blocks for a slot.
func (r *Resource) Acquire(p *Proc) {}

// AcquireFunc runs fn inline once a slot is held; fn must not block.
func (r *Resource) AcquireFunc(fn func()) {}

// Release returns a slot.
func (r *Resource) Release() {}

// Use acquires, sleeps d, and releases.
func (r *Resource) Use(p *Proc, d Duration) {}

// WaitAll blocks until every event has triggered.
func WaitAll(p *Proc, evs ...*Event) {}
