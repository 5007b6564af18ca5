// Package blockbad is the flagged golden case for simblocking: every
// deadlock shape the virtual-clock engine cannot detect at runtime.
package blockbad

import (
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// NestedAcquire takes a second resource while holding the first.
func NestedAcquire(p *sim.Proc, a, b *sim.Resource) {
	a.Acquire(p)
	b.Acquire(p) // want "nested b.Acquire while resource a is held"
	b.Release()
	a.Release()
}

// WaitUnderResource parks unboundedly while occupying a resource.
func WaitUnderResource(p *sim.Proc, r *sim.Resource, q *sim.Queue) {
	r.Acquire(p)
	_, _ = q.Get(p) // want "unbounded sim Get while resource r is held"
	r.Release()
}

// BlockInAfter blocks inside an inline engine callback.
func BlockInAfter(e *sim.Engine, p *sim.Proc, ev *sim.Event) {
	e.After(1, func() {
		ev.Wait(p) // want "sim Wait inside an inline engine callback"
	})
	ev.OnTrigger(func() {
		p.Sleep(1) // want "sim Sleep inside an inline engine callback"
	})
}

// BlockInAcquireFunc blocks inside a resource continuation.
func BlockInAcquireFunc(r *sim.Resource, p *sim.Proc) {
	r.AcquireFunc(func() {
		p.Sleep(1) // want "sim Sleep inside an inline engine callback"
		r.Release()
	})
}

// BlockInNonBlockingHandler has no process of its own, and must not park
// one it captured.
func BlockInNonBlockingHandler(ep *gasnet.Endpoint, p *sim.Proc) {
	ep.RegisterNonBlocking("done", func(am gasnet.AM) {
		p.Sleep(1) // want "sim Sleep inside an inline engine callback"
	})
}

// SendInCallback uses the process form of a send where there is no process
// to park: a reply from a non-blocking handler is SendFunc's job.
func SendInCallback(ep *gasnet.Endpoint, f *netsim.Fabric, p *sim.Proc) {
	ep.RegisterNonBlocking("ping", func(am gasnet.AM) {
		f.Send(p, netsim.Message{From: 1, To: am.From}) // want "netsim Send inside an inline engine callback"
	})
}
