package sim

// popped is one event as Run popped it: its time and sequence number.
type popped struct {
	at  Time
	seq uint64
}

// recordPops makes e append every event it pops to the returned log.
func recordPops(e *Engine) *[]popped {
	log := new([]popped)
	e.onPop = func(at Time, seq uint64) { *log = append(*log, popped{at, seq}) }
	return log
}

// acquire is how a process holds a unit of r: it awaits AcquireFunc's
// grant, and resumes in the grant's slot.
func acquire(p *Proc, r *Resource) {
	p.Await(r, func(done func(bool)) { r.AcquireFunc(func() { done(true) }) })
}
