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

// StreamCUDA is the single-GPU CUDA version: explicit allocation, one
// upload, NTIMES repetitions of the four kernels on the device, one
// download — the handmade-kernel version the paper compares against.
func StreamCUDA(gpu hw.GPUSpec, p StreamParams, validate bool) (Result, error) {
	p.validate()
	if p.Scalar == 0 {
		p.Scalar = 3
	}
	nb := p.N / p.BSize
	blockBytes := uint64(p.BSize) * 8

	e := sim.NewEngine()
	dev := gpusim.New(e, gpu, memspace.GPU(0, 0), false, validate)
	ctx := cuda.NewContext(dev)
	var host *memspace.Store
	if validate {
		host = memspace.NewStore(memspace.Host(0))
	}
	alloc := memspace.NewAllocator()
	mkArray := func(init float64) []memspace.Region {
		blocks := make([]memspace.Region, nb)
		for i := range blocks {
			blocks[i] = alloc.Alloc(blockBytes, 0)
			if validate {
				v := f64view(host.Bytes(blocks[i]))
				for j := range v {
					v[j] = init
				}
			}
		}
		return blocks
	}
	a, b, c := mkArray(1), mkArray(2), mkArray(0)

	var res Result
	e.Go("main", func(pr *sim.Proc) {
		for _, arr := range [][]memspace.Region{a, b, c} {
			for _, blk := range arr {
				mustMalloc(ctx, blk)
				ctx.Memcpy(pr, gpusim.H2D, blk, host, false)
			}
		}
		start := pr.Now()
		for k := 0; k < p.NTimes; k++ {
			for j := 0; j < nb; j++ {
				kern := kernels.StreamCopy{A: a[j], C: c[j]}
				ctx.Launch(pr, "copy", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nb; j++ {
				kern := kernels.StreamScale{C: c[j], B: b[j], Scalar: p.Scalar}
				ctx.Launch(pr, "scale", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nb; j++ {
				kern := kernels.StreamAdd{A: a[j], B: b[j], C: c[j]}
				ctx.Launch(pr, "add", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nb; j++ {
				kern := kernels.StreamTriad{B: b[j], C: c[j], A: a[j], Scalar: p.Scalar}
				ctx.Launch(pr, "triad", kern.GPUCost(gpu), kern.Run)
			}
		}
		res.ElapsedSeconds = (pr.Now() - start).Seconds()
		for _, blk := range a {
			ctx.Memcpy(pr, gpusim.D2H, blk, host, false)
		}
		if validate {
			var sum float64
			for _, blk := range a {
				for _, v := range f64view(host.Bytes(blk)) {
					sum += v
				}
			}
			res.Check = fmt.Sprintf("a-sum=%.1f", sum)
		}
	})
	err := e.Run()
	res.Metric = p.bytesMoved() / res.ElapsedSeconds / 1e9
	res.MetricName = "GB/s"
	return res, err
}
