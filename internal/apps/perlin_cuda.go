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

// PerlinCUDA is the single-GPU CUDA version: kernels per row block per
// step, with an explicit device-to-host copy of the frame after each step
// in the Flush variant.
func PerlinCUDA(gpu hw.GPUSpec, p PerlinParams, validate bool) (Result, error) {
	p.validate()
	nb := p.Height / p.RowsPerBlock
	blockBytes := uint64(p.Width) * uint64(p.RowsPerBlock) * 4

	e := sim.NewEngine()
	dev := gpusim.New(e, gpu, memspace.GPU(0, 0), false, validate)
	ctx := cuda.NewContext(dev)
	var host *memspace.Store
	if validate {
		host = memspace.NewStore(memspace.Host(0))
	}
	alloc := memspace.NewAllocator()
	blocks := make([]memspace.Region, nb)
	for i := range blocks {
		blocks[i] = alloc.Alloc(blockBytes, 0)
	}

	var res Result
	e.Go("main", func(pr *sim.Proc) {
		for _, blk := range blocks {
			mustMalloc(ctx, blk)
		}
		start := pr.Now()
		for s := 0; s < p.Steps; s++ {
			for i, blk := range blocks {
				kern := kernels.Perlin{Img: blk, Width: p.Width,
					Row0: i * p.RowsPerBlock, Rows: p.RowsPerBlock, Step: s}
				ctx.Launch(pr, "perlin", kern.GPUCost(gpu), kern.Run)
			}
			if p.Flush {
				for _, blk := range blocks {
					ctx.Memcpy(pr, gpusim.D2H, blk, host, false)
				}
			}
		}
		res.ElapsedSeconds = (pr.Now() - start).Seconds()
		if !p.Flush {
			// NoFlush keeps frames on the GPU; the final download is not
			// part of the per-step filter pipeline being measured.
			for _, blk := range blocks {
				ctx.Memcpy(pr, gpusim.D2H, blk, host, false)
			}
		}
		if validate {
			var sum float64
			for _, blk := range blocks {
				sum += checksum(host.Bytes(blk))
			}
			res.Check = fmt.Sprintf("img-sum=%.3f", sum)
		}
	})
	err := e.Run()
	res.Metric = p.mpixels() / res.ElapsedSeconds
	res.MetricName = "Mpixels/s"
	return res, err
}
