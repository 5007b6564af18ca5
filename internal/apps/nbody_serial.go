package apps

import (
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// Serial N-Body reference: the same force kernel run monolithically on the
// host, one iteration after another.

// NBodySerialSum runs the simulation on the host and returns the sum of
// the final positions, the cross-variant validation quantity.
func NBodySerialSum(p NBodyParams) float64 {
	store := memspace.NewStore(memspace.Host(0))
	alloc := memspace.NewAllocator()
	pos := alloc.Alloc(uint64(p.N) * 16)
	vel := alloc.Alloc(uint64(p.N) * 16)
	out := alloc.Alloc(uint64(p.N) * 16)
	copy(f32view(store.Bytes(pos)), nbodyInitPos(p.N))
	for it := 0; it < p.Iters; it++ {
		kernels.NBodyStep{
			AllPos: pos, Vel: vel, OutPos: out,
			N: p.N, Block0: 0, BlockN: p.N, DT: nbodyDT, Soften2: nbodySoften2,
		}.Run(store)
		copy(f32view(store.Bytes(pos)), f32view(store.Bytes(out)))
	}
	return checksum(store.Bytes(pos))
}
