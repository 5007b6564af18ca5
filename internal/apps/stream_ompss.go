package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/kernels"
)

// StreamOmpSs is the paper's Figure 2 program: the four STREAM operations
// as CUDA tasks over blocked arrays, dependences chaining the blocks
// through the NTIMES repetitions.
func StreamOmpSs(cfg ompss.Config, p StreamParams) (Result, error) {
	p.validate()
	nb := p.N / p.BSize
	blockBytes := uint64(p.BSize) * 8
	rt := ompss.New(cfg)
	var res Result
	stats, err := rt.Run(func(ctx *ompss.Context) {
		alloc := func() []ompss.Region {
			blocks := make([]ompss.Region, nb)
			for i := range blocks {
				blocks[i] = ctx.Alloc(blockBytes)
			}
			return blocks
		}
		a, b, c := alloc(), alloc(), alloc()
		// Parallel initialization, as in the original benchmark's init
		// loop: one SMP task per block index initializes the a/b/c triple
		// in host memory, so the triple lands — and stays — on one node.
		// This is what lets STREAM scale with no inter-node transfers
		// (Fig. 11).
		for j := 0; j < nb; j++ {
			ctx.Task(kernels.StreamInit{A: a[j], B: b[j], C: c[j]},
				ompss.Target(ompss.SMP), ompss.Out(a[j], b[j], c[j]))
		}
		ctx.TaskWaitNoflush()

		start := ctx.Now()
		for k := 0; k < p.NTimes; k++ {
			for j := 0; j < nb; j++ {
				ctx.Task(kernels.StreamCopy{A: a[j], C: c[j]},
					ompss.Target(ompss.CUDA), ompss.In(a[j]), ompss.Out(c[j]))
			}
			for j := 0; j < nb; j++ {
				ctx.Task(kernels.StreamScale{C: c[j], B: b[j], Scalar: streamScalar},
					ompss.Target(ompss.CUDA), ompss.In(c[j]), ompss.Out(b[j]))
			}
			for j := 0; j < nb; j++ {
				ctx.Task(kernels.StreamAdd{A: a[j], B: b[j], C: c[j]},
					ompss.Target(ompss.CUDA), ompss.In(a[j], b[j]), ompss.Out(c[j]))
			}
			for j := 0; j < nb; j++ {
				ctx.Task(kernels.StreamTriad{B: b[j], C: c[j], A: a[j], Scalar: streamScalar},
					ompss.Target(ompss.CUDA), ompss.In(b[j], c[j]), ompss.Out(a[j]))
			}
		}
		ctx.TaskWaitNoflush()
		res.ElapsedSeconds = (ctx.Now() - start).Seconds()

		if cfg.Validate {
			ctx.TaskWait()
			var sum float64
			for _, blk := range a {
				for _, v := range f64view(ctx.HostBytes(blk)) {
					sum += v
				}
			}
			res.Check = fmt.Sprintf("a-sum=%.1f", sum)
		}
	})
	res.Stats = stats
	res.Metric = p.bytesMoved() / res.ElapsedSeconds / 1e9
	res.MetricName = "GB/s"
	return res, err
}
