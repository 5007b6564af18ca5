package sim

// Resource models a facility one holder uses at a time (a DMA engine, a
// link direction, an execution engine) with FIFO admission. A holder — a
// continuation (AcquireFunc), which a process awaits with Proc.Await —
// takes it, keeps it for some virtual time, and releases it.
type Resource struct {
	e       *Engine
	name    string
	busy    bool
	waiters []func()
}

// NewResource returns an idle resource.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{e: e, name: name}
}

// String names the resource as something a process waits on.
func (r *Resource) String() string { return "resource " + r.name }

// AcquireFunc takes the resource, FIFO behind earlier requesters while it is
// held: fn runs once it is held — at once if it is idle, else as a bare
// callback that the Release handing it over schedules at its own instant.
// fn must not block.
func (r *Resource) AcquireFunc(fn func()) {
	if !r.busy {
		r.busy = true
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release gives the resource up, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		fn := r.waiters[0]
		r.waiters = r.waiters[:copy(r.waiters, r.waiters[1:])]
		// The resource passes directly to the waiter; it stays busy.
		r.e.schedule(r.e.now, nil, fn)
		return
	}
	r.busy = false
}
