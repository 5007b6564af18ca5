// Package gpusim models a GPU device for the discrete-event simulation: a
// compute engine, two DMA engines (host-to-device and device-to-host), a
// device memory capacity account, and an optional backing store so that
// kernels can really execute for validation.
//
// The timing model is a roofline: a kernel occupies the compute engine for
// launchOverhead + max(flops/effectiveFlops, bytes/memBandwidth); a transfer
// occupies its DMA engine for pcieLatency + size/pcieBandwidth. Under
// overlap a transfer also pays a staging memcpy through an intermediate
// page-locked buffer (the paper's cudaMallocHost buffer), since host memory
// is pageable.
package gpusim

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Dir is a transfer direction.
type Dir int

const (
	// H2D transfers host memory to device memory.
	H2D Dir = iota
	// D2H transfers device memory to host memory.
	D2H
)

func (d Dir) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// Stats aggregates device activity counters.
type Stats struct {
	Kernels    int
	BytesH2D   uint64
	BytesD2H   uint64
	XfersH2D   int
	XfersD2H   int
	KernelBusy sim.Time
	DMABusy    sim.Time
}

// Device is one simulated GPU.
type Device struct {
	e    *sim.Engine
	spec hw.GPUSpec
	loc  memspace.Location

	// overlap: kernels and transfers proceed on independent engines (CUDA
	// streams). Without overlap every operation serializes on one queue,
	// matching the paper's observation that CUDA tends to serialize
	// transfers after kernel execution.
	overlap bool

	compute *sim.Resource
	dma     [2]*sim.Resource // by Dir; both are compute when overlap is off

	memUsed uint64
	store   *memspace.Store // nil in cost-only mode

	stats Stats
}

// New returns a device for GPU dev of node at location loc. If validate is
// true the device carries a backing store and kernels can really run.
func New(e *sim.Engine, spec hw.GPUSpec, loc memspace.Location, overlap, validate bool) *Device {
	d := &Device{e: e, spec: spec, loc: loc, overlap: overlap}
	if overlap {
		d.compute = sim.NewResource(e, loc.String()+":compute")
		d.dma = [2]*sim.Resource{sim.NewResource(e, loc.String()+":h2d"), sim.NewResource(e, loc.String()+":d2h")}
	} else {
		d.compute = sim.NewResource(e, loc.String()+":queue")
		d.dma = [2]*sim.Resource{d.compute, d.compute}
	}
	if validate {
		d.store = memspace.NewStore(loc)
	}
	return d
}

// Spec returns the hardware description.
func (d *Device) Spec() hw.GPUSpec { return d.spec }

// Store returns the device backing store (nil in cost-only mode).
func (d *Device) Store() *memspace.Store { return d.store }

// Alloc reserves size bytes of device memory, reporting whether it fits.
func (d *Device) Alloc(size uint64) bool {
	if d.memUsed+size > d.spec.MemBytes {
		return false
	}
	d.memUsed += size
	return true
}

// Free releases size bytes of device memory.
func (d *Device) Free(size uint64) {
	if size > d.memUsed {
		panic(fmt.Sprintf("gpusim: free of %d bytes exceeds %d used on %v", size, d.memUsed, d.loc))
	}
	d.memUsed -= size
}

// KernelCost returns the modeled duration of a kernel touching the given
// flops and device-memory bytes.
func KernelCost(spec hw.GPUSpec, flops, bytes float64) time.Duration {
	tc := flops / spec.EffectiveFlops()
	tm := bytes / spec.MemBandwidth
	t := tc
	if tm > t {
		t = tm
	}
	return spec.KernelLaunchOverhead + time.Duration(t*1e9)
}

// TransferCost returns the modeled PCIe duration for size bytes, excluding
// staging.
func TransferCost(spec hw.GPUSpec, size uint64) time.Duration {
	return spec.PCIeLatency + time.Duration(float64(size)/spec.PCIeBandwidth*1e9)
}

// stagingCost returns the host memcpy duration for staging size bytes into
// or out of a page-locked buffer.
func stagingCost(spec hw.GPUSpec, size uint64) time.Duration {
	return time.Duration(float64(size) / spec.PinnedCopyBandwidth * 1e9)
}

// occupy holds engine eng for cost, FIFO behind earlier operations, then
// runs done — a timed operation as three events and no process.
func (d *Device) occupy(eng *sim.Resource, cost time.Duration, done func()) {
	eng.AcquireFunc(func() {
		d.e.After(cost, func() {
			eng.Release()
			done()
		})
	})
}

// LaunchAsync starts a kernel with the given modeled cost and optional real
// execution body. It returns an Event that triggers when the kernel
// completes. body is posted at completion time against the device store,
// as an op on the store's plane (memspace.Do).
func (d *Device) LaunchAsync(cost time.Duration, body func(devStore *memspace.Store)) *sim.Event {
	done := sim.NewEvent(d.e)
	d.e.After(0, func() {
		d.occupy(d.compute, cost, func() {
			d.stats.Kernels++
			d.stats.KernelBusy += sim.Time(cost)
			if body != nil {
				memspace.Do(func() { body(d.store) }, d.store)
			}
			done.Trigger()
		})
	})
	return done
}

// Launch runs a kernel synchronously from process p.
func (d *Device) Launch(p *sim.Proc, cost time.Duration, body func(devStore *memspace.Store)) {
	d.LaunchAsync(cost, body).Wait(p)
}

// CopyAsync starts a transfer of region r between the host store and the
// device store. The returned Event triggers at completion; the byte copy
// between stores is posted at completion time (memspace.CopyRegion).
func (d *Device) CopyAsync(dir Dir, r memspace.Region, hostStore *memspace.Store) *sim.Event {
	done := sim.NewEvent(d.e)
	cost := TransferCost(d.spec, r.Size)
	dma := func() {
		d.occupy(d.dma[dir], cost, func() {
			d.stats.DMABusy += sim.Time(cost)
			switch dir {
			case H2D:
				d.stats.BytesH2D += r.Size
				d.stats.XfersH2D++
				memspace.CopyRegion(d.store, hostStore, r)
			case D2H:
				d.stats.BytesD2H += r.Size
				d.stats.XfersD2H++
				memspace.CopyRegion(hostStore, d.store, r)
			}
			done.Trigger()
		})
	}
	start := dma
	if d.overlap {
		// Stage user memory into an intermediate page-locked buffer before
		// the DMA can start (H2D), or out of it after (D2H). The memcpy burns
		// host time either way; model it serially on this transfer.
		start = func() { d.e.After(stagingCost(d.spec, r.Size), dma) }
	}
	d.e.After(0, start)
	return done
}

// Copy performs a synchronous transfer from process p.
func (d *Device) Copy(p *sim.Proc, dir Dir, r memspace.Region, hostStore *memspace.Store) {
	d.CopyAsync(dir, r, hostStore).Wait(p)
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }
