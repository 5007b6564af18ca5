package cuda

import (
	"errors"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

func newCtx(t *testing.T) (*sim.Engine, *Context) {
	t.Helper()
	e := sim.NewEngine()
	spec := hw.GTX480()
	spec.MemBytes = 1 << 20
	dev := gpusim.New(e, spec, memspace.GPU(0, 0), true, true)
	return e, NewContext(dev)
}

func TestMallocFreeAccounting(t *testing.T) {
	_, ctx := newCtx(t)
	r1 := memspace.Region{Addr: 0x1000, Size: 1 << 19}
	r2 := memspace.Region{Addr: 0x2000, Size: 1 << 19}
	r3 := memspace.Region{Addr: 0x3000, Size: 1}
	if err := ctx.Malloc(r1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Malloc(r1); err == nil {
		t.Fatal("double malloc should fail")
	}
	if err := ctx.Malloc(r2); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Malloc(r3); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	ctx.Free(r1)
	if err := ctx.Malloc(r3); err != nil {
		t.Fatalf("after free: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("freeing unallocated region should panic")
		}
	}()
	ctx.Free(memspace.Region{Addr: 0x9999, Size: 8})
}

func TestBlockingMemcpyMovesBytes(t *testing.T) {
	e, ctx := newCtx(t)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x5000, Size: 3}
	copy(host.Bytes(r), []byte{1, 2, 3})
	e.Go("main", func(p *sim.Proc) {
		ctx.Memcpy(p, gpusim.H2D, r, host, false)
		ctx.Launch(p, "incr", time.Microsecond, func(dev *memspace.Store) {
			b := dev.Bytes(r)
			for i := range b {
				b[i]++
			}
		})
		ctx.Memcpy(p, gpusim.D2H, r, host, false)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	b := host.Bytes(r)
	if b[0] != 2 || b[1] != 3 || b[2] != 4 {
		t.Fatalf("host bytes = %v", b)
	}
}

func TestFreeDropsDeviceBytes(t *testing.T) {
	e, ctx := newCtx(t)
	host := memspace.NewStore(memspace.Host(0))
	r := memspace.Region{Addr: 0x6000, Size: 8}
	if err := ctx.Malloc(r); err != nil {
		t.Fatal(err)
	}
	e.Go("main", func(p *sim.Proc) {
		ctx.Memcpy(p, gpusim.H2D, r, host, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ctx.dev.Store().Has(r) {
		t.Fatal("device store should hold region after copy")
	}
	ctx.Free(r)
	if ctx.dev.Store().Has(r) {
		t.Fatal("Free should drop device bytes")
	}
	if ctx.dev.MemUsed() != 0 {
		t.Fatalf("MemUsed = %d after free", ctx.dev.MemUsed())
	}
}
