package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/kernels"
)

// HeatOmpSs runs the Jacobi stencil as OmpSs tasks. Each step task writes
// its block of the next array and reads the same span of the current
// array plus one halo cell on each interior side — regions that partially
// overlap the neighbouring writers' blocks. The runtime's fragment
// tracking turns those overlaps into ordinary dependence arcs and
// assembles each halo read from its holders, across GPUs and nodes.
func HeatOmpSs(cfg ompss.Config, p HeatParams) (Result, error) {
	p.validate()
	nb := p.N / p.BSize
	const cell = 8
	rt := ompss.New(cfg)
	var res Result
	stats, err := rt.Run(func(ctx *ompss.Context) {
		cur := ctx.Alloc(uint64(p.N) * cell)
		nxt := ctx.Alloc(uint64(p.N) * cell)
		sub := func(r ompss.Region, i0, n int) ompss.Region {
			return ompss.Region{Addr: r.Addr + uint64(i0)*cell, Size: uint64(n) * cell}
		}
		// Parallel initialization: one SMP task per block, as the other
		// cluster applications do, so blocks distribute across the nodes.
		for j := 0; j < nb; j++ {
			blk := sub(cur, j*p.BSize, p.BSize)
			ctx.Task(kernels.HeatInit{R: blk, Block0: j * p.BSize},
				ompss.Target(ompss.SMP), ompss.Out(blk))
		}
		ctx.TaskWaitNoflush()

		start := ctx.Now()
		for s := 0; s < p.Steps; s++ {
			for j := 0; j < nb; j++ {
				i0 := j * p.BSize
				lh, rh := 0, 0
				if i0 > 0 {
					lh = 1
				}
				if i0+p.BSize < p.N {
					rh = 1
				}
				in := sub(cur, i0-lh, p.BSize+lh+rh)
				out := sub(nxt, i0, p.BSize)
				ctx.Task(kernels.JacobiStep{In: in, Out: out,
					LeftHalo: lh, RightHalo: rh, Alpha: heatAlpha},
					ompss.Target(ompss.CUDA), ompss.In(in), ompss.Out(out))
			}
			cur, nxt = nxt, cur
		}
		ctx.TaskWaitNoflush()
		res.ElapsedSeconds = (ctx.Now() - start).Seconds()

		if cfg.Validate {
			ctx.TaskWait()
			// Block by block, in rod order: the same additions as one pass
			// over the rod, each block read into one reused buffer, where
			// HostBytes would merge the host extents a block spans into a
			// fresh one.
			var sum float64
			buf := make([]byte, p.BSize*cell)
			for j := 0; j < nb; j++ {
				ctx.HostRead(sub(cur, j*p.BSize, p.BSize), buf)
				for _, v := range f64view(buf) {
					sum += v
				}
			}
			res.Check = fmt.Sprintf("sum=%.6f", sum)
		}
	})
	res.Stats = stats
	res.Metric = p.cellUpdates() / res.ElapsedSeconds / 1e6
	res.MetricName = "Mcells/s"
	return res, err
}
