package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/cuda"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
)

// MatmulCUDA is the plain single-GPU CUDA version of the benchmark (the
// "CUDA" column of Table I): explicit device allocation, explicit host to
// device copies, a loop of CUBLAS-style sgemm launches, and explicit
// copies back — everything the OmpSs runtime otherwise does for the
// programmer.
func MatmulCUDA(gpu hw.GPUSpec, p MatmulParams, validate bool) (Result, error) {
	p.validate()
	nt := p.N / p.BS
	tileBytes := uint64(p.BS) * uint64(p.BS) * 4

	e := sim.NewEngine()
	dev := gpusim.New(e, gpu, memspace.GPU(0, 0), false, validate)
	ctx := cuda.NewContext(dev)
	var host *memspace.Store
	if validate {
		host = memspace.NewStore(memspace.Host(0))
	}
	alloc := memspace.NewAllocator()

	newTiles := func(seedBase int, fill bool) []memspace.Region {
		ts := make([]memspace.Region, nt*nt)
		for i := range ts {
			ts[i] = alloc.Alloc(tileBytes)
			if fill && validate {
				copy(f32view(host.Bytes(ts[i])), fillPattern(p.BS*p.BS, uint32(seedBase+i)))
			}
		}
		return ts
	}
	a := newTiles(0, true)
	b := newTiles(nt*nt, true)
	c := newTiles(0, false)

	var res Result
	e.Go("main", func(pr *sim.Proc) {
		// Device allocation and upload of all three matrices.
		for _, ts := range [][]memspace.Region{a, b, c} {
			for _, t := range ts {
				if err := ctx.Malloc(t); err != nil {
					panic(fmt.Sprintf("apps: matmul does not fit on one GPU: %v", err))
				}
				ctx.Memcpy(pr, gpusim.H2D, t, host)
			}
		}
		start := pr.Now()
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					kern := kernels.Sgemm{A: a[i*nt+k], B: b[k*nt+j], C: c[i*nt+j], BS: p.BS}
					ctx.Launch(pr, kern.GPUCost(gpu), func(devStore *memspace.Store) {
						kern.Run(devStore)
					})
				}
			}
		}
		res.ElapsedSeconds = (pr.Now() - start).Seconds()
		for _, t := range c {
			ctx.Memcpy(pr, gpusim.D2H, t, host)
		}
		if validate {
			var sum float64
			for _, t := range c {
				sum += checksum(host.Bytes(t))
			}
			res.Check = fmt.Sprintf("checksum=%.3f", sum)
		}
	})
	err := e.Run()
	res.Metric = p.flops() / res.ElapsedSeconds / 1e9
	res.MetricName = "GFLOPS"
	return res, err
}
