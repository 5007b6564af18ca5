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

// NBodyCUDA is the single-GPU version built directly on the CUDA facade
// (the NVIDIA-example structure): upload once, iterate force kernel and
// device-side gather, download at the end.
func NBodyCUDA(gpu hw.GPUSpec, p NBodyParams, validate bool) (Result, error) {
	if p.N%p.Blocks != 0 {
		return Result{}, fmt.Errorf("apps: N=%d not divisible into %d blocks", p.N, p.Blocks)
	}
	bodiesPer := p.N / p.Blocks
	blockBytes := uint64(bodiesPer) * 16

	e := sim.NewEngine()
	dev := gpusim.New(e, gpu, memspace.GPU(0, 0), false, validate)
	ctx := cuda.NewContext(dev)
	var host *memspace.Store
	if validate {
		host = memspace.NewStore(memspace.Host(0))
	}
	alloc := memspace.NewAllocator()
	pos := alloc.Alloc(uint64(p.N)*16, 0)
	if validate {
		copy(f32view(host.Bytes(pos)), nbodyInitPos(p.N))
	}
	vel := make([]memspace.Region, p.Blocks)
	out := make([]memspace.Region, p.Blocks)
	counts := make([]int, p.Blocks)
	for b := range vel {
		vel[b] = alloc.Alloc(blockBytes, 0)
		out[b] = alloc.Alloc(blockBytes, 0)
		counts[b] = bodiesPer
	}

	var res Result
	e.Go("main", func(pr *sim.Proc) {
		mustMalloc(ctx, pos)
		ctx.Memcpy(pr, gpusim.H2D, pos, host, false)
		for b := range vel {
			mustMalloc(ctx, vel[b])
			mustMalloc(ctx, out[b])
			ctx.Memcpy(pr, gpusim.H2D, vel[b], host, false)
		}
		start := pr.Now()
		for it := 0; it < p.Iters; it++ {
			for b := 0; b < p.Blocks; b++ {
				kern := kernels.NBodyStep{
					AllPos: pos, Vel: vel[b], OutPos: out[b],
					N: p.N, Block0: b * bodiesPer, BlockN: bodiesPer,
					DT: nbodyDT, Soften2: nbodySoften2,
				}
				ctx.Launch(pr, "nbody", kern.GPUCost(gpu), kern.Run)
			}
			gather := kernels.GatherPos{Blocks: out, AllPos: pos, Counts: counts}
			ctx.Launch(pr, "gather", gather.GPUCost(gpu), gather.Run)
		}
		res.ElapsedSeconds = (pr.Now() - start).Seconds()
		ctx.Memcpy(pr, gpusim.D2H, pos, host, false)
		if validate {
			res.Check = fmt.Sprintf("pos-sum=%.3f", checksum(host.Bytes(pos)))
		}
	})
	err := e.Run()
	res.Metric = p.flops() / res.ElapsedSeconds / 1e9
	res.MetricName = "GFLOPS"
	return res, err
}
