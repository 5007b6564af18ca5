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

// PerlinMPICUDA is the cluster baseline: each rank generates its share of
// rows on its node's GPU; the Flush variant copies the frame off the GPU
// and gathers it at rank 0 after every step, which — as the paper notes —
// cannot be overlapped with computation.
func PerlinMPICUDA(spec hw.ClusterSpec, p PerlinParams, validate bool) (Result, error) {
	p.validate()
	nodes := len(spec.Nodes)
	nb := p.Height / p.RowsPerBlock
	if nb%nodes != 0 {
		return Result{}, fmt.Errorf("apps: %d blocks not divisible across %d ranks", nb, nodes)
	}
	nbPerRank := nb / nodes
	blockBytes := uint64(p.Width) * uint64(p.RowsPerBlock) * 4

	m := newMPIMachine(spec, validate)
	blocks := make([]memspace.Region, nb)
	for i := range blocks {
		blocks[i] = m.alloc.Alloc(blockBytes)
	}

	var res Result
	var sum float64
	var compute float64
	_, err := m.run(func(pr *sim.Proc, r *mpi.Rank, node int) {
		ctx := cuda.NewContext(m.devs[node][0])
		gpu := m.devs[node][0].Spec()
		lo := node * nbPerRank
		mine := blocks[lo : lo+nbPerRank]
		for _, blk := range mine {
			mustMalloc(ctx, blk)
		}
		r.Barrier(pr)
		start := pr.Now()
		for s := 0; s < p.Steps; s++ {
			for bi, blk := range mine {
				kern := kernels.Perlin{Img: blk, Width: p.Width,
					Row0: (lo + bi) * p.RowsPerBlock, Rows: p.RowsPerBlock, Step: s}
				ctx.Launch(pr, kern.GPUCost(gpu), kern.Run)
			}
			if p.Flush {
				for _, blk := range mine {
					ctx.Memcpy(pr, gpusim.D2H, blk, r.Store())
				}
				gatherFrame(pr, r, blocks, nbPerRank, nodes)
			}
		}
		r.Barrier(pr)
		if sec := (pr.Now() - start).Seconds(); sec > compute {
			compute = sec
		}
		if !p.Flush {
			// The NoFlush variant keeps the frames on the GPUs; moving the
			// final image out happens after the measured region, exactly
			// like the OmpSs version's taskwait-noflush measurement.
			for _, blk := range mine {
				ctx.Memcpy(pr, gpusim.D2H, blk, r.Store())
			}
			gatherFrame(pr, r, blocks, nbPerRank, nodes)
		}
		if validate && node == 0 {
			for _, blk := range blocks {
				sum += checksum(r.Store().Bytes(blk))
			}
		}
	})
	res.ElapsedSeconds = compute
	res.Metric = p.mpixels() / res.ElapsedSeconds
	res.MetricName = "Mpixels/s"
	if validate {
		res.Check = fmt.Sprintf("img-sum=%.3f", sum)
	}
	return res, err
}

// gatherFrame collects the full frame at rank 0, one gather per block
// position (mpi.Gather's contract is one region per rank per call).
func gatherFrame(p *sim.Proc, r *mpi.Rank, blocks []memspace.Region, nbPerRank, nodes int) {
	per := make([]memspace.Region, nodes)
	for bi := 0; bi < nbPerRank; bi++ {
		for rr := 0; rr < nodes; rr++ {
			per[rr] = blocks[rr*nbPerRank+bi]
		}
		r.Gather(p, 0, per)
	}
}
