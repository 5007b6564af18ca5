package sim

// Resource models a capacity-limited facility (a DMA engine, a link
// direction, an execution engine) with FIFO admission. A holder — a process
// (Acquire) or a continuation (AcquireFunc), in one queue — takes a unit,
// keeps it for some virtual time, and releases it.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  []resWaiter
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: Resource capacity must be >= 1")
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// String names the resource as something a process waits on.
func (r *Resource) String() string { return "resource " + r.name }

// resWaiter is one queued requester: a blocked process or a continuation.
type resWaiter struct {
	p  *Proc
	fn func()
}

// Acquire obtains one unit, blocking FIFO behind earlier requesters while
// the resource is saturated.
func (r *Resource) Acquire(p *Proc) {
	if !r.request(resWaiter{p: p}) {
		p.park(r)
	}
}

// AcquireFunc is Acquire for an operation that has no process: fn runs once
// the unit is held — at once if one is free, else as a bare callback that the
// Release handing it over schedules in place of a wake-up. fn must not block.
func (r *Resource) AcquireFunc(fn func()) {
	if r.request(resWaiter{fn: fn}) {
		fn()
	}
}

// request takes a free unit, or queues w and reports false.
func (r *Resource) request(w resWaiter) bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, w)
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		// Unit passes directly to the waiter; inUse unchanged.
		r.e.schedule(r.e.now, w.p, w.fn)
		return
	}
	r.inUse--
}

// Use acquires a unit, holds it for d, then releases it. This is the common
// pattern for modeling a timed service (e.g. a DMA transfer occupying an
// engine for bytes/bandwidth seconds).
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requesters waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }
