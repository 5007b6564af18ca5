package memspace

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Plane runs the byte work of one validated run — copies, task bodies with
// their guard, reduction folds, fills — beside the thread that posts it.
// An op runs after every op posted earlier on any store it names, so each
// store sees exactly the operations it would see had each op run inline when
// posted, while ops on disjoint stores run at once. Workers start when
// an op is ready and leave when none is.
type Plane struct {
	mu             sync.Mutex
	workers        sync.WaitGroup
	ready          []*op
	max, running   int
	posted, errSeq uint64
	err            error // the earliest-posted failure
	wrap           func(value any, stack []byte) error
}

// An op waits for the unfinished ops posted before it on its stores.
type op struct {
	f     func()
	seq   uint64
	wait  int
	done  bool
	succs []*op
}

// NewPlane returns a plane of at most workers goroutines (0: GOMAXPROCS).
// An op that panics fails the plane with wrap(value, stack); Wait returns
// the earliest-posted failure, and every op posted after it is skipped.
func NewPlane(workers int, wrap func(value any, stack []byte) error) *Plane {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Plane{max: workers, wrap: wrap}
}

// UsePlane makes s, unless nil, post its ops to p.
func (s *Store) UsePlane(p *Plane) {
	if s != nil {
		s.plane = p
	}
}

// Do runs f, which may touch only stores, after every op posted earlier on
// any of them — all on one plane — or inline when the first store is nil
// or has no plane.
func Do(f func(), stores ...*Store) {
	if stores[0] == nil || stores[0].plane == nil {
		f()
		return
	}
	p := stores[0].plane
	p.mu.Lock()
	defer p.mu.Unlock()
	p.posted++
	o := &op{f: f, seq: p.posted}
	for _, s := range stores {
		if last := s.last; last != o && last != nil && !last.done {
			last.succs = append(last.succs, o)
			o.wait++
		}
		s.last = o
	}
	if o.wait == 0 {
		p.push(o)
	}
}

// push readies o and starts a worker if the bound allows; mu is held.
func (p *Plane) push(o *op) {
	p.ready = append(p.ready, o)
	if p.running < p.max {
		p.running++
		p.workers.Add(1)
		go p.work()
	}
}

func (p *Plane) work() {
	defer p.workers.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ready) > 0 {
		o := p.ready[0]
		p.ready[0], p.ready = nil, p.ready[1:]
		if p.err == nil || o.seq < p.errSeq {
			p.mu.Unlock()
			err := p.run(o.f)
			p.mu.Lock()
			if err != nil && (p.err == nil || o.seq < p.errSeq) {
				p.err, p.errSeq = err, o.seq
			}
		}
		o.done, o.f = true, nil
		for _, s := range o.succs {
			if s.wait--; s.wait == 0 {
				p.push(s)
			}
		}
		o.succs = nil
	}
	p.running--
}

func (p *Plane) run(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = p.wrap(r, debug.Stack())
		}
	}()
	f()
	return nil
}

// Wait blocks until every op posted so far has finished and every worker
// has left, and returns the plane's failure. A nil plane has none.
func (p *Plane) Wait() error {
	if p == nil {
		return nil
	}
	p.workers.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
