package gpusim

import (
	"errors"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

func testSpec() hw.GPUSpec {
	return hw.GPUSpec{
		Name:                 "test-gpu",
		PeakSPFlops:          1e12,
		KernelEfficiency:     0.5,
		MemBandwidth:         100e9,
		MemBytes:             1 << 30,
		KernelLaunchOverhead: 10 * time.Microsecond,
		PCIeBandwidth:        5e9,
		PCIeLatency:          10 * time.Microsecond,
		PinnedCopyBandwidth:  10e9,
	}
}

func TestKernelCostRoofline(t *testing.T) {
	spec := testSpec()
	// Compute bound: 5e9 flops at 0.5e12 -> 10ms, touching few bytes.
	got := KernelCost(spec, 5e9, 1000)
	want := spec.KernelLaunchOverhead + 10*time.Millisecond
	if got != want {
		t.Fatalf("compute-bound cost = %v, want %v", got, want)
	}
	// Memory bound: 1e9 bytes at 100 GB/s -> 10ms, few flops.
	got = KernelCost(spec, 1000, 1e9)
	if got != want {
		t.Fatalf("memory-bound cost = %v, want %v", got, want)
	}
}

func TestTransferAndStagingCost(t *testing.T) {
	spec := testSpec()
	if got, want := TransferCost(spec, 5_000_000), spec.PCIeLatency+time.Millisecond; got != want {
		t.Fatalf("transfer cost = %v, want %v", got, want)
	}
	if got, want := stagingCost(spec, 10_000_000), time.Millisecond; got != want {
		t.Fatalf("staging cost = %v, want %v", got, want)
	}
}

func TestMemoryAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, false)
	if !d.Alloc(1 << 29) {
		t.Fatal("first alloc should fit")
	}
	if !d.Alloc(1 << 29) {
		t.Fatal("second alloc should fit exactly")
	}
	if d.Alloc(1) {
		t.Fatal("alloc past capacity should fail")
	}
	if free := d.spec.MemBytes - d.memUsed; free != 0 {
		t.Fatalf("free = %d, want 0", free)
	}
	d.Free(1 << 29)
	if d.memUsed != 1<<29 {
		t.Fatalf("memUsed = %d", d.memUsed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-free should panic")
		}
	}()
	d.Free(1 << 30)
}

func TestSerializedDeviceQueuesEverything(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), false /* no overlap */, false)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x1000, Size: 5_000_000} // 1ms+10us transfer
	var end sim.Time
	e.Go("driver", func(p *sim.Proc) {
		kernel := d.LaunchAsync(2*time.Millisecond, nil)
		xfer := d.CopyAsync(H2D, r, host)
		kernel.Wait(p)
		xfer.Wait(p)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Without overlap, kernel (2ms) then transfer (1.01ms) serialize.
	want := sim.Time(2*time.Millisecond + time.Millisecond + 10*time.Microsecond)
	if end != want {
		t.Fatalf("end = %v, want %v (serialized)", end, want)
	}
}

func TestOverlapDeviceRunsConcurrently(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true /* overlap */, false)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x1000, Size: 5_000_000}
	var end sim.Time
	e.Go("driver", func(p *sim.Proc) {
		kernel := d.LaunchAsync(2*time.Millisecond, nil)
		xfer := d.CopyAsync(H2D, r, host)
		kernel.Wait(p)
		xfer.Wait(p)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// With overlap the 1.01ms transfer hides under the 2ms kernel.
	if want := sim.Time(2 * time.Millisecond); end != want {
		t.Fatalf("end = %v, want %v (overlapped)", end, want)
	}
}

func TestUnpinnedStagingAddsTime(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, false)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x1000, Size: 10_000_000}
	var elapsed sim.Time
	e.Go("driver", func(p *sim.Proc) {
		d.Copy(p, H2D, r, host)
		elapsed = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Under overlap, host memory is staged through a page-locked buffer
	// before the DMA.
	if want := sim.Time(TransferCost(testSpec(), r.Size) + stagingCost(testSpec(), r.Size)); elapsed != want {
		t.Fatalf("elapsed = %v, want %v (transfer + staging)", elapsed, want)
	}
}

func TestCopyMovesRealBytes(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, true /* validate */)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x2000, Size: 4}
	copy(host.Bytes(r), []byte{9, 8, 7, 6})
	e.Go("driver", func(p *sim.Proc) {
		d.Copy(p, H2D, r, host)
		// Kernel doubles each byte on the device.
		d.Launch(p, time.Microsecond, func(dev *memspace.Store) {
			b := dev.Bytes(r)
			for i := range b {
				b[i] *= 2
			}
		})
		d.Copy(p, D2H, r, host)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := host.Bytes(r)
	want := []byte{18, 16, 14, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("host bytes = %v, want %v", got, want)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, false)
	host := memspace.NewStore(memspace.Host(0))
	e.Go("driver", func(p *sim.Proc) {
		d.Copy(p, H2D, memspace.Region{Addr: 0x1, Size: 100}, host)
		d.Copy(p, D2H, memspace.Region{Addr: 0x2, Size: 50}, host)
		d.Launch(p, time.Millisecond, nil)
		d.Launch(p, time.Millisecond, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Kernels != 2 || s.BytesH2D != 100 || s.BytesD2H != 50 || s.XfersH2D != 1 || s.XfersD2H != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.KernelBusy != sim.Time(2*time.Millisecond) {
		t.Fatalf("kernel busy = %v", s.KernelBusy)
	}
}

func TestDirString(t *testing.T) {
	if H2D.String() != "H2D" || D2H.String() != "D2H" {
		t.Fatal("Dir.String broken")
	}
}

// A D2H with no host store is timed and counted like any other, and leaves
// the device bytes where they are: how a reduction partial is read for its
// fold.
func TestD2HWithoutHostStoreChargesTime(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, true)
	r := memspace.Region{Addr: 0x7000, Size: 5_000_000}
	copy(d.Store().Bytes(r), []byte{1, 2, 3})
	var elapsed sim.Time
	d.CopyAsync(D2H, r, nil).WaitFunc(func() { elapsed = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(TransferCost(testSpec(), r.Size) + stagingCost(testSpec(), r.Size)); elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if b := d.Store().Bytes(r); b[0] != 1 || b[2] != 3 {
		t.Fatalf("device bytes = %v", b[:3])
	}
	if d.Stats().XfersD2H != 1 || d.Stats().BytesD2H != r.Size {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

// Kernels and DMAs are timed operations with no control flow: they run as
// engine events. The device starts no process, and one launch costs a fixed,
// small number of allocations (its completion event, its continuations and
// the waiter's slot) — no goroutine, stack or channel.
func TestOperationsSpawnNoProcess(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, false)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x1000, Size: 4096}
	var allocs float64
	e.Go("driver", func(p *sim.Proc) {
		// Contended and uncontended, both directions.
		evs := []*sim.Event{
			d.CopyAsync(H2D, r, host), d.CopyAsync(H2D, r, host),
			d.CopyAsync(D2H, r, host),
			d.LaunchAsync(time.Millisecond, nil), d.LaunchAsync(time.Millisecond, nil),
		}
		for _, ev := range evs {
			ev.Wait(p)
		}
		allocs = testing.AllocsPerRun(100, func() { d.Launch(p, time.Microsecond, nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := e.Spawned(); n != 1 {
		t.Fatalf("%d processes spawned, want the driver alone", n)
	}
	if s := d.Stats(); s.Kernels != 103 || s.XfersH2D != 2 || s.XfersD2H != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if allocs > 6 {
		t.Fatalf("%.1f allocs per Launch, want <= 6", allocs)
	}
	t.Logf("%.1f allocs per Launch", allocs)
}

// A kernel body that panics (a Validate-mode user kernel) is Run's error,
// even when the process that launched it has exited and nothing waits.
func TestPanickingKernelBodyStopsRun(t *testing.T) {
	e := sim.NewEngine()
	d := New(e, testSpec(), memspace.GPU(0, 0), true, true)
	e.Go("driver", func(p *sim.Proc) {
		d.LaunchAsync(time.Millisecond, func(*memspace.Store) { panic("bad kernel") })
	})
	finished := make(chan error, 1)
	go func() { finished <- e.Run() }()
	select {
	case err := <-finished:
		var pp *sim.ProcPanicError
		if !errors.As(err, &pp) || pp.Value != "bad kernel" {
			t.Fatalf("err = %v, want ProcPanicError(bad kernel)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
}
