// Package blockok is the clean golden case for simblocking: the bounded
// occupancy model, spawning from inline callbacks, and the reasoned
// escape hatch.
package blockok

import (
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Occupy models engine occupancy: a bounded Sleep with the resource
// held is the point of the pattern.
func Occupy(p *sim.Proc, r *sim.Resource) {
	r.Acquire(p)
	p.Sleep(10)
	r.Release()
}

// SpawnFromAfter spawns a process from an inline callback; the spawned
// process may block freely.
func SpawnFromAfter(e *sim.Engine, ev *sim.Event) {
	e.After(1, func() {
		e.Go("drain", func(p *sim.Proc) {
			ev.Wait(p)
		})
	})
}

// OrderedAcquire nests acquires under a documented global order.
func OrderedAcquire(p *sim.Proc, tx, rx *sim.Resource) {
	tx.Acquire(p)
	//ompss:simblock-ok TX is always acquired before RX; the wait graph is acyclic
	rx.Acquire(p)
	tx.Release()
	rx.Release()
}

// OccupyAsEvents is Occupy with no process: acquire, hold and release as
// continuations, none of which blocks.
func OccupyAsEvents(e *sim.Engine, r *sim.Resource, done *sim.Event) {
	r.AcquireFunc(func() {
		e.After(10, func() {
			r.Release()
			done.Trigger()
		})
	})
}

// Handlers registers one handler of each kind: the process form may block,
// the non-blocking form only updates state.
func Handlers(ep *gasnet.Endpoint, ev *sim.Event) {
	ep.Register("fetch", func(p *sim.Proc, am gasnet.AM) { ev.Wait(p) })
	ep.RegisterNonBlocking("ack", func(am gasnet.AM) { ev.Trigger() })
}

// ReplyFromCallback sends from a non-blocking handler with the event-chain
// form, and goes on — still without blocking — in its last step.
func ReplyFromCallback(ep *gasnet.Endpoint, f *netsim.Fabric, ev *sim.Event) {
	ep.RegisterNonBlocking("ping", func(am gasnet.AM) {
		f.SendFunc(netsim.Message{From: 1, To: am.From}, func() { ev.Trigger() })
	})
}
