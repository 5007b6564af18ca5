package apps

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/kernels"
)

// HeatParams configures the 1-D Jacobi heat stencil: a rod of N float64
// cells, updated Steps times in blocks of BSize cells. Each block's step
// reads one halo cell from each neighbouring block, so the dependence
// regions of adjacent tasks partially overlap — the workload the
// fragment-based region tracking exists for.
type HeatParams struct {
	N     int // cells in the rod (float64)
	BSize int // cells per block
	Steps int
}

// heatAlpha is the stencil's diffusion coefficient.
const heatAlpha = 0.25

func (p HeatParams) validate() {
	if p.N <= 0 || p.BSize <= 0 || p.N%p.BSize != 0 || p.Steps <= 0 {
		panic(fmt.Sprintf("apps: bad heat params N=%d BSIZE=%d steps=%d", p.N, p.BSize, p.Steps))
	}
}

// cellUpdates is the stencil's work accounting.
func (p HeatParams) cellUpdates() float64 {
	return float64(p.Steps) * float64(p.N)
}

// heatTile is the number of final cells the serial reference computes at
// a time.
const heatTile = 4096

// HeatSerialSum is the serial reference checksum validated runs compare
// against: the sum of the final rod in cell order. It steps the rod one
// tile at a time, each with Steps halo cells on either side, in two small
// buffers. Step s recomputes every window cell whose neighbours are still
// valid after step s-1, so the window's valid part shrinks by one cell a
// side per step and after Steps it is the tile. Each final cell gets the
// same operations in the same order as a whole-rod sweep, and the update
// expression matches kernels.JacobiStep term for term, so a correct task
// run reproduces this sum exactly.
func HeatSerialSum(p HeatParams) float64 {
	p.validate()
	w := heatTile + 2*p.Steps
	cur, nxt := make([]float64, w), make([]float64, w)
	var sum float64
	for t0 := 0; t0 < p.N; t0 += heatTile {
		t1 := min(t0+heatTile, p.N)
		lo, hi := max(t0-p.Steps, 0), min(t1+p.Steps, p.N)
		n := hi - lo
		for i := range n {
			cur[i] = kernels.HeatCell(lo + i)
		}
		for s := 1; s <= p.Steps; s++ {
			from, to := s, n-s // window cells whose neighbours are valid
			if lo == 0 {
				nxt[0] = cur[0] // the rod's fixed boundary cells
				from = 1
			}
			if hi == p.N {
				nxt[n-1] = cur[n-1]
				to = n - 1
			}
			for i := from; i < to; i++ {
				nxt[i] = cur[i] + heatAlpha*(cur[i-1]-2*cur[i]+cur[i+1])
			}
			cur, nxt = nxt, cur
		}
		for _, v := range cur[t0-lo : t1-lo] {
			sum += v
		}
	}
	return sum
}
