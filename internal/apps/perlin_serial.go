package apps

import (
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// Serial Perlin reference: the same noise function applied step after step
// on the host, used for Table I and validation.

// PerlinSerialSum generates the final frame (step = Steps-1 — earlier
// frames are overwritten, as in the parallel variants) and returns the sum
// of its pixels.
func PerlinSerialSum(p PerlinParams) float64 {
	p.validate()
	store := memspace.NewStore(memspace.Host(0))
	alloc := memspace.NewAllocator()
	nb := p.Height / p.RowsPerBlock
	blockBytes := uint64(p.Width) * uint64(p.RowsPerBlock) * 4
	var sum float64
	for i := 0; i < nb; i++ {
		blk := alloc.Alloc(blockBytes)
		for s := 0; s < p.Steps; s++ {
			kernels.Perlin{
				Img: blk, Width: p.Width,
				Row0: i * p.RowsPerBlock, Rows: p.RowsPerBlock, Step: s,
			}.Run(store)
		}
		sum += checksum(store.Bytes(blk))
	}
	return sum
}
