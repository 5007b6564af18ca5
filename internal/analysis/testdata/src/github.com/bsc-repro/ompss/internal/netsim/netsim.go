// Package netsim is a type-level stub of the interconnect model, placed at
// its real import path so golden test packages can send on a fabric.
package netsim

import "github.com/bsc-repro/ompss/internal/sim"

// Message stubs one unit of delivery.
type Message struct{ From, To int }

// Fabric stubs the set of node interfaces.
type Fabric struct{}

// Send blocks the calling process for the sender-side cost.
func (f *Fabric) Send(p *sim.Proc, msg Message) {}

// SendFunc is Send as a chain of events; done runs inline on the engine
// loop and must not block.
func (f *Fabric) SendFunc(msg Message, done func()) {}
