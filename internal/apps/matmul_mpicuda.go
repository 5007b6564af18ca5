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

// MatmulMPICUDA is the MPI+CUDA baseline of Figures 9-10: the SUMMA
// algorithm (van de Geijn & Watts) on a 2D process grid, one rank per
// node, with the local products on the node's GPU via the CUBLAS-class
// sgemm kernel. As in the paper, the implementation is deliberately plain:
// blocking panel broadcasts, no communication/computation overlap.
func MatmulMPICUDA(spec hw.ClusterSpec, p MatmulParams, validate bool) (Result, error) {
	p.validate()
	nt := p.N / p.BS
	tileBytes := uint64(p.BS) * uint64(p.BS) * 4
	nodes := len(spec.Nodes)
	pr, pc := gridShape(nodes)
	if nt%pr != 0 || nt%pc != 0 {
		return Result{}, fmt.Errorf("apps: %d tiles not divisible by %dx%d grid", nt, pr, pc)
	}
	rowsPer, colsPer := nt/pr, nt/pc

	m := newMPIMachine(spec, false, validate)

	// Global tile regions (shared logical addresses; bytes live per rank).
	tiles := func() []memspace.Region {
		ts := make([]memspace.Region, nt*nt)
		for i := range ts {
			ts[i] = m.alloc.Alloc(tileBytes, 0)
		}
		return ts
	}
	a, b, c := tiles(), tiles(), tiles()

	ownerOf := func(i, j int) int { return (i/rowsPer)*pc + (j / colsPer) }

	// Initialize owned tiles in each rank's host store.
	if validate {
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				st := m.stores[ownerOf(i, j)]
				copy(f32view(st.Bytes(a[i*nt+j])), fillPattern(p.BS*p.BS, uint32(i*nt+j)))
				copy(f32view(st.Bytes(b[i*nt+j])), fillPattern(p.BS*p.BS, uint32(nt*nt+i*nt+j)))
			}
		}
	}

	var res Result
	var sumMu float64 // accumulated checksum (single-threaded virtual time)
	var compute float64
	done, err := m.run(func(pr2 *sim.Proc, r *mpi.Rank, node int) {
		myRow, myCol := node/pc, node%pc
		rowLo, colLo := myRow*rowsPer, myCol*colsPer
		ctx := cuda.NewContext(m.devs[node][0])
		gpu := m.devs[node][0].Spec()

		// C stays resident on the GPU for the whole run.
		for i := rowLo; i < rowLo+rowsPer; i++ {
			for j := colLo; j < colLo+colsPer; j++ {
				mustMalloc(ctx, c[i*nt+j])
			}
		}
		r.Barrier(pr2)
		start := pr2.Now()

		for k := 0; k < nt; k++ {
			// Row broadcast of the A column panel: the rank in this grid
			// row owning column k sends its tiles to the row peers.
			aOwnerCol := k / colsPer
			for i := rowLo; i < rowLo+rowsPer; i++ {
				exchangePanel(pr2, r, a[i*nt+k], myRow*pc+aOwnerCol, rowPeers(myRow, pc))
			}
			// Column broadcast of the B row panel.
			bOwnerRow := k / rowsPer
			for j := colLo; j < colLo+colsPer; j++ {
				exchangePanel(pr2, r, b[k*nt+j], bOwnerRow*pc+myCol, colPeers(myCol, pr, pc))
			}
			// Upload the panels and run the local products.
			for i := rowLo; i < rowLo+rowsPer; i++ {
				mustMalloc(ctx, a[i*nt+k])
				ctx.Memcpy(pr2, gpusim.H2D, a[i*nt+k], r.Store(), false)
			}
			for j := colLo; j < colLo+colsPer; j++ {
				mustMalloc(ctx, b[k*nt+j])
				ctx.Memcpy(pr2, gpusim.H2D, b[k*nt+j], r.Store(), false)
			}
			for i := rowLo; i < rowLo+rowsPer; i++ {
				for j := colLo; j < colLo+colsPer; j++ {
					kern := kernels.Sgemm{A: a[i*nt+k], B: b[k*nt+j], C: c[i*nt+j], BS: p.BS}
					ctx.Launch(pr2, "sgemm", kern.GPUCost(gpu), kern.Run)
				}
			}
			for i := rowLo; i < rowLo+rowsPer; i++ {
				ctx.Free(a[i*nt+k])
			}
			for j := colLo; j < colLo+colsPer; j++ {
				ctx.Free(b[k*nt+j])
			}
		}
		// Results back to the host.
		for i := rowLo; i < rowLo+rowsPer; i++ {
			for j := colLo; j < colLo+colsPer; j++ {
				ctx.Memcpy(pr2, gpusim.D2H, c[i*nt+j], r.Store(), false)
			}
		}
		r.Barrier(pr2)
		if sec := (pr2.Now() - start).Seconds(); sec > compute {
			compute = sec
		}
		if validate {
			for i := rowLo; i < rowLo+rowsPer; i++ {
				for j := colLo; j < colLo+colsPer; j++ {
					sumMu += checksum(r.Store().Bytes(c[i*nt+j]))
				}
			}
		}
	})
	_ = done
	res.ElapsedSeconds = compute
	res.Metric = p.flops() / res.ElapsedSeconds / 1e9
	res.MetricName = "GFLOPS"
	if validate {
		res.Check = fmt.Sprintf("checksum=%.3f", sumMu)
	}
	return res, err
}

// gridShape picks the most square pr x pc factorization of n.
func gridShape(n int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			pr = d
		}
	}
	return pr, n / pr
}

// rowPeers returns the world ranks of grid row `row`.
func rowPeers(row, pc int) []int {
	peers := make([]int, pc)
	for c := range peers {
		peers[c] = row*pc + c
	}
	return peers
}

// colPeers returns the world ranks of grid column `col`.
func colPeers(col, pr, pc int) []int {
	peers := make([]int, pr)
	for r := range peers {
		peers[r] = r*pc + col
	}
	return peers
}

// exchangePanel distributes one tile from its owner to every peer in the
// group with plain sends (the naive broadcast of the paper's baseline).
// Every rank in the group must call it.
func exchangePanel(p *sim.Proc, r *mpi.Rank, tile memspace.Region, owner int, peers []int) {
	const tag = 7
	if r.Rank() == owner {
		for _, peer := range peers {
			if peer != owner {
				r.Send(p, peer, tag, tile)
			}
		}
		return
	}
	for _, peer := range peers {
		if peer == r.Rank() {
			r.Recv(p, owner, tag)
			return
		}
	}
}

func mustMalloc(ctx *cuda.Context, r memspace.Region) {
	if err := ctx.Malloc(r); err != nil {
		panic(fmt.Sprintf("apps: SUMMA working set exceeds GPU memory: %v", err))
	}
}
