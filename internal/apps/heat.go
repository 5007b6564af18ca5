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
	Alpha float64 // diffusion coefficient (0 selects 0.25)
}

// withDefaults resolves the zero-value fields.
func (p HeatParams) withDefaults() HeatParams {
	if p.Alpha == 0 {
		p.Alpha = 0.25
	}
	return p
}

func (p HeatParams) validate() {
	if p.N <= 0 || p.BSize <= 0 || p.N%p.BSize != 0 || p.Steps <= 0 {
		panic(fmt.Sprintf("apps: bad heat params N=%d BSIZE=%d steps=%d", p.N, p.BSize, p.Steps))
	}
}

// cellUpdates is the stencil's work accounting.
func (p HeatParams) cellUpdates() float64 {
	return float64(p.Steps) * float64(p.N)
}

// heatSerial runs the reference stencil in plain Go and returns the final
// rod. The update expression matches kernels.JacobiStep term for term, so
// a correct task run reproduces these bytes exactly.
func heatSerial(p HeatParams) []float64 {
	p = p.withDefaults()
	p.validate()
	cur := make([]float64, p.N)
	for i := range cur {
		cur[i] = kernels.HeatCell(i)
	}
	nxt := make([]float64, p.N)
	for s := 0; s < p.Steps; s++ {
		nxt[0] = cur[0]
		nxt[p.N-1] = cur[p.N-1]
		for i := 1; i < p.N-1; i++ {
			nxt[i] = cur[i] + p.Alpha*(cur[i-1]-2*cur[i]+cur[i+1])
		}
		cur, nxt = nxt, cur
	}
	return cur
}

// HeatSerialSum is the serial reference checksum validated runs compare
// against.
func HeatSerialSum(p HeatParams) float64 {
	var sum float64
	for _, v := range heatSerial(p) {
		sum += v
	}
	return sum
}
