package sim

// Queue is an unbounded FIFO of items passed between processes in virtual
// time. Put never blocks; Get blocks the caller until an item is available.
// Items are delivered in insertion order; blocked getters — processes (Get)
// and callbacks (GetFunc), in one queue — are served in arrival order.
type Queue[T any] struct {
	e       *Engine
	items   []T
	waiters []*getter[T]
	closed  bool
	spare   *getter[T] // the slot of the last GetFunc served, for the next
}

// getter is one blocked consumer: a process, or the callback fn.
type getter[T any] struct {
	p    *Proc
	fn   func(v T, ok bool)
	run  func() // bound once per slot: fn(item, ok), as a bare event
	item T
	ok   bool // item has been deposited; false when woken by Close
}

// NewQueue returns an empty queue on engine e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{e: e} }

// Len returns the number of queued (undelivered) items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v to the queue, waking the oldest blocked getter if any.
// Safe to call from processes or bare callbacks. Panics if the queue is
// closed.
func (q *Queue[T]) Put(v T) {
	if !q.TryPut(v) {
		panic("sim: Put on closed Queue")
	}
}

// TryPut is Put that reports false instead of panicking when the queue is
// closed — for producers that may race teardown, such as in-flight network
// deliveries arriving after an endpoint shut down.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		return false
	}
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[:copy(q.waiters, q.waiters[1:])]
		w.item, w.ok = v, true
		q.e.schedule(q.e.now, w.p, w.run)
		return true
	}
	q.items = append(q.items, v)
	return true
}

// Close marks the queue closed: queued items are still delivered, then
// subsequent Gets return ok=false. Blocked getters wake immediately with
// ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		q.e.schedule(q.e.now, w.p, w.run)
	}
	q.waiters = nil
}

// Get removes and returns the oldest item, blocking the calling process if
// the queue is empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	if v, ok = q.TryGet(); ok || q.closed {
		return v, ok
	}
	w := &getter[T]{p: p}
	q.waiters = append(q.waiters, w)
	p.Park("queue get")
	return w.item, w.ok
}

// GetFunc is Get for a consumer that has no process: fn runs with the oldest
// item — at once if one is queued or the queue is closed, else as a bare
// callback that the Put supplying the item (or Close) schedules in place of
// a getter's wake-up. Items put while that callback is pending queue up, so
// an fn that ends by calling GetFunc again drains a burst in one go, and
// allocates nothing: it is handed the slot it was served from. fn must not
// block.
func (q *Queue[T]) GetFunc(fn func(v T, ok bool)) {
	if v, ok := q.TryGet(); ok || q.closed {
		fn(v, ok)
		return
	}
	w := q.spare
	q.spare = nil
	if w == nil {
		w = new(getter[T])
		w.run = func() {
			fn, v, ok := w.fn, w.item, w.ok
			var zero T
			w.fn, w.item, w.ok, q.spare = nil, zero, false, w
			fn(v, ok)
		}
	}
	w.fn = fn
	q.waiters = append(q.waiters, w)
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v, true
}
