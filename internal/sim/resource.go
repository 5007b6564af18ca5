package sim

// Resource models a capacity-limited facility (a DMA engine, a link
// direction, an execution engine) with FIFO admission. A holder — a
// continuation (AcquireFunc), which a process awaits with Proc.Await — takes
// a unit, keeps it for some virtual time, and releases it.
type Resource struct {
	e        *Engine
	name     string
	capacity int
	inUse    int
	waiters  []func()
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

// AcquireFunc obtains one unit, FIFO behind earlier requesters while the
// resource is saturated: fn runs once the unit is held — at once if one is
// free, else as a bare callback that the Release handing it over schedules
// at its own instant. fn must not block.
func (r *Resource) AcquireFunc(fn func()) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release returns one unit, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		fn := r.waiters[0]
		r.waiters = r.waiters[:copy(r.waiters, r.waiters[1:])]
		// Unit passes directly to the waiter; inUse unchanged.
		r.e.schedule(r.e.now, nil, fn)
		return
	}
	r.inUse--
}
