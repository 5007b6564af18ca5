// Package cuda is a thin CUDA-like API facade over the simulated GPU of
// package gpusim: contexts, device memory allocation, synchronous and
// stream-ordered asynchronous copies, and kernel launches. Both the Nanos++
// GPU dependent layer and the MPI+CUDA baseline applications program
// against this facade, mirroring how the paper's runtime and baselines both
// sit on the CUDA library.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

// ErrOutOfMemory is returned by Malloc when device memory is exhausted.
var ErrOutOfMemory = errors.New("cuda: out of device memory")

// Context wraps one device, tracking its allocations.
type Context struct {
	e      *sim.Engine
	dev    *gpusim.Device
	allocs map[uint64]uint64 // region addr -> size
}

// NewContext returns a context on dev.
func NewContext(e *sim.Engine, dev *gpusim.Device) *Context {
	return &Context{e: e, dev: dev, allocs: make(map[uint64]uint64)}
}

// Device returns the underlying simulated device.
func (c *Context) Device() *gpusim.Device { return c.dev }

// Malloc reserves device memory for region r (cudaMalloc).
func (c *Context) Malloc(r memspace.Region) error {
	if _, dup := c.allocs[r.Addr]; dup {
		return fmt.Errorf("cuda: double Malloc of %v", r)
	}
	if !c.dev.Alloc(r.Size) {
		return ErrOutOfMemory
	}
	c.allocs[r.Addr] = r.Size
	return nil
}

// Free releases the device allocation for region r (cudaFree).
func (c *Context) Free(r memspace.Region) {
	size, ok := c.allocs[r.Addr]
	if !ok {
		panic(fmt.Sprintf("cuda: Free of unallocated region %v", r))
	}
	delete(c.allocs, r.Addr)
	c.dev.Free(size)
	if s := c.dev.Store(); s != nil {
		s.Drop(memspace.Region{Addr: r.Addr, Size: size})
	}
}

// Memcpy performs a blocking transfer (cudaMemcpy): the calling process
// waits for completion. pinned marks the host buffer page-locked.
func (c *Context) Memcpy(p *sim.Proc, dir gpusim.Dir, r memspace.Region, host *memspace.Store, pinned bool) {
	c.dev.Copy(p, dir, r, host, pinned)
}

// Launch runs a kernel synchronously (launch + cudaDeviceSynchronize).
func (c *Context) Launch(p *sim.Proc, name string, cost time.Duration, body func(dev *memspace.Store)) {
	c.dev.Launch(p, cost, body)
}

// Stream is a CUDA stream: operations enqueued on it execute in order,
// overlapping with other streams when the device supports it.
type Stream struct {
	ctx  *Context
	last *sim.Event // completion of the most recently enqueued op
}

// NewStream returns an empty stream (cudaStreamCreate).
func (c *Context) NewStream() *Stream {
	ev := sim.NewEvent(c.e)
	ev.Trigger() // empty stream is synchronized
	return &Stream{ctx: c, last: ev}
}

// enqueue chains op behind the stream's previous operation. start must kick
// off the underlying asynchronous operation and return its completion event.
func (s *Stream) enqueue(name string, start func() *sim.Event) *sim.Event {
	prev := s.last
	done := sim.NewEvent(s.ctx.e)
	s.ctx.e.Go("stream:"+name, func(p *sim.Proc) {
		prev.Wait(p)
		start().Wait(p)
		done.Trigger()
	})
	s.last = done
	return done
}

// MemcpyAsync enqueues a transfer on the stream (cudaMemcpyAsync).
func (s *Stream) MemcpyAsync(dir gpusim.Dir, r memspace.Region, host *memspace.Store, pinned bool) *sim.Event {
	return s.enqueue(fmt.Sprintf("memcpy:%v", dir), func() *sim.Event {
		return s.ctx.dev.CopyAsync(dir, r, host, pinned)
	})
}

// LaunchAsync enqueues a kernel on the stream.
func (s *Stream) LaunchAsync(name string, cost time.Duration, body func(dev *memspace.Store)) *sim.Event {
	return s.enqueue("kernel:"+name, func() *sim.Event {
		return s.ctx.dev.LaunchAsync(cost, body)
	})
}

// Synchronize blocks the calling process until all enqueued work completes
// (cudaStreamSynchronize).
func (s *Stream) Synchronize(p *sim.Proc) {
	s.last.Wait(p)
}

// Event is a CUDA event: a marker recorded into a stream that other
// streams can wait on (cudaEventRecord / cudaStreamWaitEvent).
type Event struct {
	ctx  *Context
	done *sim.Event
}

// NewEvent returns an unrecorded event (cudaEventCreate). Waiting on an
// unrecorded event completes immediately, as in CUDA.
func (c *Context) NewEvent() *Event {
	ev := sim.NewEvent(c.e)
	ev.Trigger()
	return &Event{ctx: c, done: ev}
}

// Record marks the event complete when all work currently enqueued on s
// has executed (cudaEventRecord).
func (ev *Event) Record(s *Stream) {
	ev.done = s.last
}

// Synchronize blocks the calling process until the event completes
// (cudaEventSynchronize).
func (ev *Event) Synchronize(p *sim.Proc) { ev.done.Wait(p) }

// WaitEvent makes all subsequently enqueued work on s wait for ev
// (cudaStreamWaitEvent).
func (s *Stream) WaitEvent(ev *Event) {
	prev := s.last
	gate := sim.NewEvent(s.ctx.e)
	s.ctx.e.Go("stream:waitEvent", func(p *sim.Proc) {
		prev.Wait(p)
		ev.done.Wait(p)
		gate.Trigger()
	})
	s.last = gate
}
