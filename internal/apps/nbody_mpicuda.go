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

// NBodyMPICUDA is the cluster baseline: each rank integrates its block of
// bodies on its node's GPU, then an MPI allgather redistributes the new
// positions to everyone before the next iteration — the all-to-all
// communication pattern of Figure 13.
func NBodyMPICUDA(spec hw.ClusterSpec, p NBodyParams, validate bool) (Result, error) {
	nodes := len(spec.Nodes)
	if p.N%nodes != 0 {
		return Result{}, fmt.Errorf("apps: N=%d not divisible across %d ranks", p.N, nodes)
	}
	bodiesPer := p.N / nodes
	blockBytes := uint64(bodiesPer) * 16

	m := newMPIMachine(spec, validate)
	pos := m.alloc.Alloc(uint64(p.N) * 16)
	outs := make([]memspace.Region, nodes)
	vels := make([]memspace.Region, nodes)
	counts := make([]int, nodes)
	for b := range outs {
		outs[b] = m.alloc.Alloc(blockBytes)
		vels[b] = m.alloc.Alloc(blockBytes)
		counts[b] = bodiesPer
	}
	if validate {
		init := nbodyInitPos(p.N)
		for r := 0; r < nodes; r++ {
			copy(f32view(m.stores[r].Bytes(pos)), init)
		}
	}

	var res Result
	var sum float64
	var compute float64
	_, err := m.run(func(pr *sim.Proc, r *mpi.Rank, node int) {
		ctx := cuda.NewContext(m.devs[node][0])
		gpu := m.devs[node][0].Spec()
		spec0 := spec.Nodes[node]
		mustMalloc(ctx, pos)
		mustMalloc(ctx, vels[node])
		mustMalloc(ctx, outs[node])
		ctx.Memcpy(pr, gpusim.H2D, vels[node], r.Store())
		r.Barrier(pr)
		start := pr.Now()
		for it := 0; it < p.Iters; it++ {
			// Positions to the device (fresh after each allgather).
			ctx.Memcpy(pr, gpusim.H2D, pos, r.Store())
			kern := kernels.NBodyStep{
				AllPos: pos, Vel: vels[node], OutPos: outs[node],
				N: p.N, Block0: node * bodiesPer, BlockN: bodiesPer,
				DT: nbodyDT, Soften2: nbodySoften2,
			}
			ctx.Launch(pr, kern.GPUCost(gpu), kern.Run)
			ctx.Memcpy(pr, gpusim.D2H, outs[node], r.Store())
			// All-to-all through rank 0: gather the new blocks, then
			// broadcast them. Like the paper's other baselines this is the
			// plain structure of the original MPI code, with no attempt to
			// overlap or decentralize (a ring allgather — also available in
			// internal/mpi — would relieve the root at large node counts).
			r.Gather(pr, 0, outs)
			for b := range outs {
				r.Bcast(pr, 0, outs[b])
			}
			// Rebuild the shared position array on the host.
			gather := kernels.GatherPos{Blocks: outs, AllPos: pos, Counts: counts}
			pr.Sleep(gather.CPUCost(spec0))
			if validate {
				gather.Run(r.Store())
			}
		}
		r.Barrier(pr)
		if sec := (pr.Now() - start).Seconds(); sec > compute {
			compute = sec
		}
		if validate && node == 0 {
			sum = checksum(r.Store().Bytes(pos))
		}
	})
	res.ElapsedSeconds = compute
	res.Metric = p.flops() / res.ElapsedSeconds / 1e9
	res.MetricName = "GFLOPS"
	if validate {
		res.Check = fmt.Sprintf("pos-sum=%.3f", sum)
	}
	return res, err
}
