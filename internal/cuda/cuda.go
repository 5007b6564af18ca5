// Package cuda is a thin CUDA-like API facade over the simulated GPU of
// package gpusim: contexts, device memory allocation, blocking copies and
// kernel launches. The CUDA and MPI+CUDA baseline applications program
// against it, as the paper's hand-written baselines program against the
// CUDA library; the OmpSs runtime drives gpusim directly.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

// errOutOfMemory is returned by Malloc when device memory is exhausted.
var errOutOfMemory = errors.New("cuda: out of device memory")

// Context wraps one device, tracking its allocations.
type Context struct {
	dev    *gpusim.Device
	allocs map[uint64]uint64 // region addr -> size
}

// NewContext returns a context on dev.
func NewContext(dev *gpusim.Device) *Context {
	return &Context{dev: dev, allocs: make(map[uint64]uint64)}
}

// Malloc reserves device memory for region r (cudaMalloc).
func (c *Context) Malloc(r memspace.Region) error {
	if _, dup := c.allocs[r.Addr]; dup {
		return fmt.Errorf("cuda: double Malloc of %v", r)
	}
	if !c.dev.Alloc(r.Size) {
		return errOutOfMemory
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
// waits for completion.
func (c *Context) Memcpy(p *sim.Proc, dir gpusim.Dir, r memspace.Region, host *memspace.Store) {
	c.dev.Copy(p, dir, r, host)
}

// Launch runs a kernel synchronously (launch + cudaDeviceSynchronize).
func (c *Context) Launch(p *sim.Proc, cost time.Duration, body func(dev *memspace.Store)) {
	c.dev.Launch(p, cost, body)
}
