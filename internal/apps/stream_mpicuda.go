package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/cuda"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/mpi"
	"github.com/bsc-repro/ompss/internal/sim"
)

// StreamMPICUDA is the cluster baseline: the original MPI STREAM with
// handmade CUDA kernels. Each rank owns a contiguous share of the arrays
// on its node's GPU; there is no inter-node communication beyond the
// start/end barriers, which is why the benchmark scales perfectly
// (Figure 11).
func StreamMPICUDA(spec hw.ClusterSpec, p StreamParams, validate bool) (Result, error) {
	p.validate()
	if p.Scalar == 0 {
		p.Scalar = 3
	}
	nodes := len(spec.Nodes)
	if p.N%(p.BSize*nodes) != 0 {
		return Result{}, fmt.Errorf("apps: N=%d not divisible into %d blocks across %d ranks", p.N, p.N/p.BSize, nodes)
	}
	nbPerRank := p.N / p.BSize / nodes
	blockBytes := uint64(p.BSize) * 8

	m := newMPIMachine(spec, false, validate)
	// Per-rank block regions (global addresses, local bytes).
	mkArray := func() [][]memspace.Region {
		all := make([][]memspace.Region, nodes)
		for r := range all {
			blocks := make([]memspace.Region, nbPerRank)
			for i := range blocks {
				blocks[i] = m.alloc.Alloc(blockBytes, 0)
			}
			all[r] = blocks
		}
		return all
	}
	a, b, c := mkArray(), mkArray(), mkArray()
	if validate {
		for r := 0; r < nodes; r++ {
			for i := 0; i < nbPerRank; i++ {
				av := f64view(m.stores[r].Bytes(a[r][i]))
				bv := f64view(m.stores[r].Bytes(b[r][i]))
				for j := range av {
					av[j], bv[j] = 1, 2
				}
			}
		}
	}

	var res Result
	var sum float64
	var compute float64
	_, err := m.run(func(pr *sim.Proc, r *mpi.Rank, node int) {
		ctx := cuda.NewContext(m.devs[node][0])
		gpu := m.devs[node][0].Spec()
		for _, arr := range [][]memspace.Region{a[node], b[node], c[node]} {
			for _, blk := range arr {
				mustMalloc(ctx, blk)
				ctx.Memcpy(pr, gpusim.H2D, blk, r.Store(), false)
			}
		}
		r.Barrier(pr)
		start := pr.Now()
		for k := 0; k < p.NTimes; k++ {
			for j := 0; j < nbPerRank; j++ {
				kern := kernels.StreamCopy{A: a[node][j], C: c[node][j]}
				ctx.Launch(pr, "copy", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nbPerRank; j++ {
				kern := kernels.StreamScale{C: c[node][j], B: b[node][j], Scalar: p.Scalar}
				ctx.Launch(pr, "scale", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nbPerRank; j++ {
				kern := kernels.StreamAdd{A: a[node][j], B: b[node][j], C: c[node][j]}
				ctx.Launch(pr, "add", kern.GPUCost(gpu), kern.Run)
			}
			for j := 0; j < nbPerRank; j++ {
				kern := kernels.StreamTriad{B: b[node][j], C: c[node][j], A: a[node][j], Scalar: p.Scalar}
				ctx.Launch(pr, "triad", kern.GPUCost(gpu), kern.Run)
			}
		}
		r.Barrier(pr)
		if sec := (pr.Now() - start).Seconds(); sec > compute {
			compute = sec
		}
		for _, blk := range a[node] {
			ctx.Memcpy(pr, gpusim.D2H, blk, r.Store(), false)
		}
		if validate {
			for _, blk := range a[node] {
				for _, v := range f64view(r.Store().Bytes(blk)) {
					sum += v
				}
			}
		}
	})
	res.ElapsedSeconds = compute
	res.Metric = p.bytesMoved() / res.ElapsedSeconds / 1e9
	res.MetricName = "GB/s"
	if validate {
		res.Check = fmt.Sprintf("a-sum=%.1f", sum)
	}
	return res, err
}
