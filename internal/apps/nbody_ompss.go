package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/kernels"
)

// NBodyOmpSs is the task version of the N-Body simulation: one CUDA force
// task per block per iteration. Each task reads every block of positions
// produced by the previous iteration, so after each iteration the new
// positions are distributed between all the devices — the all-to-all
// pattern the paper describes — with the coherence layer moving each block
// directly between the nodes that need it.
func NBodyOmpSs(cfg ompss.Config, p NBodyParams) (Result, error) {
	if p.N%p.Blocks != 0 {
		return Result{}, fmt.Errorf("apps: N=%d not divisible into %d blocks", p.N, p.Blocks)
	}
	bodiesPer := p.N / p.Blocks
	blockBytes := uint64(bodiesPer) * 16
	rt := ompss.New(cfg)
	var res Result
	stats, err := rt.Run(func(ctx *ompss.Context) {
		allocBlocks := func() []ompss.Region {
			bs := make([]ompss.Region, p.Blocks)
			for b := range bs {
				bs[b] = ctx.Alloc(blockBytes)
			}
			return bs
		}
		prev, cur := allocBlocks(), allocBlocks()
		vel := allocBlocks()
		// Parallel initialization: one task per block fills its positions
		// and zeroes its velocities, so block b and vel[b] are born on the
		// same device and the force tasks stay put.
		for b := 0; b < p.Blocks; b++ {
			ctx.Task(kernels.NBodyInit{Pos: prev[b], Vel: vel[b], Block0: b * bodiesPer, InitPos: nbodyInitPos},
				ompss.Target(ompss.CUDA), ompss.Out(prev[b], vel[b]))
		}
		ctx.TaskWaitNoflush()

		start := ctx.Now()
		for it := 0; it < p.Iters; it++ {
			for b := 0; b < p.Blocks; b++ {
				ctx.Task(kernels.NBodyForces{
					PrevBlocks: prev, Vel: vel[b], Out: cur[b],
					N: p.N, Block0: b * bodiesPer, BlockN: bodiesPer,
					DT: nbodyDT, Soften2: nbodySoften2,
				}, ompss.Target(ompss.CUDA), ompss.In(prev...), ompss.InOut(vel[b]), ompss.Out(cur[b]))
			}
			prev, cur = cur, prev
		}
		// The simulation result must be valid in host memory, so the flush
		// is part of the measured time: this is where the write-back
		// policy's delayed writes finally get paid (Figure 8).
		ctx.TaskWait()
		res.ElapsedSeconds = (ctx.Now() - start).Seconds()

		if cfg.Validate {
			var sum float64
			for _, b := range prev {
				sum += checksum(ctx.HostBytes(b))
			}
			res.Check = fmt.Sprintf("pos-sum=%.3f", sum)
		}
	})
	res.Stats = stats
	res.Metric = p.flops() / res.ElapsedSeconds / 1e9
	res.MetricName = "GFLOPS"
	return res, err
}
