// Package gasnet is a type-level stub of the active-message layer, placed
// at its real import path so golden test packages can register handlers.
package gasnet

import "github.com/bsc-repro/ompss/internal/sim"

// AM stubs a delivered active message.
type AM struct{ From int }

// Endpoint stubs one node's attachment to the fabric.
type Endpoint struct{}

// Register installs a handler that runs in its own process and may block.
func (ep *Endpoint) Register(name string, h func(p *sim.Proc, am AM)) {}

// RegisterNonBlocking installs a handler that runs inline on the engine
// loop; it must not block.
func (ep *Endpoint) RegisterNonBlocking(name string, h func(am AM)) {}
