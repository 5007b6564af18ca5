package kernels

import (
	"math"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// All kernels must satisfy task.Work and behave sanely on both device
// classes and in cost-only mode (nil store).
func allKernels(al *memspace.Allocator) []task.Work {
	tile := al.Alloc(64 * 64 * 4)
	tile2 := al.Alloc(64 * 64 * 4)
	tile3 := al.Alloc(64 * 64 * 4)
	blk := al.Alloc(256 * 8)
	blk2 := al.Alloc(256 * 8)
	blk3 := al.Alloc(256 * 8)
	pos := al.Alloc(32 * 16)
	vel := al.Alloc(16 * 16)
	out := al.Alloc(16 * 16)
	img := al.Alloc(64 * 8 * 4)
	return []task.Work{
		Sgemm{A: tile, B: tile2, C: tile3, BS: 64},
		FillChunk{Tiles: []memspace.Region{tile, tile2}, Seeds: []uint32{1, ZeroSeed}},
		StreamCopy{A: blk, C: blk2},
		StreamScale{C: blk2, B: blk3, Scalar: 2},
		StreamAdd{A: blk, B: blk3, C: blk2},
		StreamTriad{B: blk3, C: blk2, A: blk, Scalar: 2},
		StreamInit{A: blk, B: blk2, C: blk3},
		Perlin{Img: img, Width: 64, Rows: 8, Step: 1},
		NBodyStep{AllPos: pos, Vel: vel, OutPos: out, N: 32, Block0: 0, BlockN: 16, DT: 0.01, Soften2: 0.01},
		NBodyForces{PrevBlocks: []memspace.Region{pos}, Vel: vel, Out: out, N: 32, Block0: 0, BlockN: 16, DT: 0.01, Soften2: 0.01},
		NBodyInit{Pos: out, Vel: vel, Block0: 0, InitPos: func(n int) []float32 { return make([]float32, 4*n) }},
		GatherPos{Blocks: []memspace.Region{out}, AllPos: pos, Counts: []int{16}},
		HeatInit{R: blk, Block0: 0},
		JacobiStep{In: blk, Out: blk2, Alpha: 0.25},
	}
}

func TestAllKernelsCostModelsArePositiveAndFinite(t *testing.T) {
	al := memspace.NewAllocator()
	gpu := hw.GTX480()
	node := hw.ClusterNode()
	for _, k := range allKernels(al) {
		if k.Name() == "" {
			t.Errorf("%T has empty name", k)
		}
		g := k.GPUCost(gpu)
		c := k.CPUCost(node)
		if g <= 0 || g > time.Minute {
			t.Errorf("%s GPU cost out of range: %v", k.Name(), g)
		}
		if c <= 0 || c > time.Minute {
			t.Errorf("%s CPU cost out of range: %v", k.Name(), c)
		}
		// Beyond the fixed launch overhead, the GPU should never be
		// absurdly slower than a host core.
		if work := g - hw.GTX480().KernelLaunchOverhead; float64(work) > 50*float64(c)+1 {
			t.Errorf("%s GPU work %v dwarfs CPU cost %v", k.Name(), work, c)
		}
	}
}

func TestAllKernelsTolerateCostOnlyMode(t *testing.T) {
	al := memspace.NewAllocator()
	for _, k := range allKernels(al) {
		k.Run(nil) // must not panic
	}
}

func TestAllKernelsRunAgainstBackingStore(t *testing.T) {
	al := memspace.NewAllocator()
	s := memspace.NewStore(memspace.Host(0))
	for _, k := range allKernels(al) {
		k.Run(s) // must not panic; buffers allocate lazily
	}
}

func TestFillChunkSkipsZeroSeed(t *testing.T) {
	al := memspace.NewAllocator()
	s := memspace.NewStore(memspace.Host(0))
	a := al.Alloc(256)
	b := al.Alloc(256)
	s.Bytes(b)[7] = 0xFF // a ZeroSeed tile is written, not left as found
	FillChunk{Tiles: []memspace.Region{a, b}, Seeds: []uint32{3, ZeroSeed}}.Run(s)
	if f32(s.Bytes(a))[0] == 0 {
		t.Error("seeded tile should be filled")
	}
	for _, v := range f32(s.Bytes(b)) {
		if v != 0 {
			t.Fatal("ZeroSeed tile must come out zero")
		}
	}
}

func TestStreamInitValues(t *testing.T) {
	al := memspace.NewAllocator()
	s := memspace.NewStore(memspace.Host(0))
	a, b, c := al.Alloc(64), al.Alloc(64), al.Alloc(64)
	StreamInit{A: a, B: b, C: c}.Run(s)
	if f64(s.Bytes(a))[0] != 1 || f64(s.Bytes(b))[0] != 2 || f64(s.Bytes(c))[0] != 0 {
		t.Fatalf("init = %v %v %v", f64(s.Bytes(a))[0], f64(s.Bytes(b))[0], f64(s.Bytes(c))[0])
	}
}

func TestNBodyForcesMatchesNBodyStep(t *testing.T) {
	const n, blocks = 24, 3
	al := memspace.NewAllocator()
	init := func() (*memspace.Store, memspace.Region, memspace.Region, memspace.Region) {
		s := memspace.NewStore(memspace.Host(0))
		pos := al.Alloc(n * 16)
		vel := al.Alloc(n * 16)
		out := al.Alloc(n * 16)
		pv := f32(s.Bytes(pos))
		for i := 0; i < n; i++ {
			pv[4*i] = float32(i%5) - 2
			pv[4*i+1] = float32(i % 3)
			pv[4*i+3] = 1
		}
		return s, pos, vel, out
	}
	// Monolithic NBodyStep.
	s1, pos1, vel1, out1 := init()
	NBodyStep{AllPos: pos1, Vel: vel1, OutPos: out1, N: n, Block0: 0, BlockN: n, DT: 0.01, Soften2: 0.1}.Run(s1)
	// Blocked NBodyForces reading the positions as three regions that view
	// the same array (same store bytes sliced by address is not possible:
	// use three separate prev blocks holding the thirds).
	s2 := memspace.NewStore(memspace.Host(0))
	var prev []memspace.Region
	src := f32(s1.Bytes(pos1)) // original positions? careful: s1 pos1 unchanged by step
	_ = src
	per := n / blocks
	for b := 0; b < blocks; b++ {
		r := al.Alloc(uint64(per) * 16)
		prev = append(prev, r)
		pv := f32(s2.Bytes(r))
		for i := 0; i < per; i++ {
			gi := b*per + i
			pv[4*i] = float32(gi%5) - 2
			pv[4*i+1] = float32(gi % 3)
			pv[4*i+3] = 1
		}
	}
	for b := 0; b < blocks; b++ {
		vel := al.Alloc(uint64(per) * 16)
		out := al.Alloc(uint64(per) * 16)
		NBodyForces{PrevBlocks: prev, Vel: vel, Out: out, N: n,
			Block0: b * per, BlockN: per, DT: 0.01, Soften2: 0.1}.Run(s2)
		// Compare this block's output with the monolithic slice.
		mono := f32(s1.Bytes(out1))[b*per*4 : (b+1)*per*4]
		got := f32(s2.Bytes(out))
		for i := range mono {
			if math.Abs(float64(mono[i]-got[i])) > 1e-5 {
				t.Fatalf("block %d element %d: %v vs %v", b, i, mono[i], got[i])
			}
		}
	}
}

func TestNBodyInitMatchesGlobalSequence(t *testing.T) {
	al := memspace.NewAllocator()
	s := memspace.NewStore(memspace.Host(0))
	seq := func(n int) []float32 {
		v := make([]float32, 4*n)
		for i := range v {
			v[i] = float32(i)
		}
		return v
	}
	pos := al.Alloc(8 * 16)
	vel := al.Alloc(8 * 16)
	NBodyInit{Pos: pos, Vel: vel, Block0: 4, InitPos: seq}.Run(s)
	pv := f32(s.Bytes(pos))
	if pv[0] != 16 || pv[31] != 47 {
		t.Fatalf("block slice wrong: first=%v last=%v", pv[0], pv[31])
	}
	for _, v := range f32(s.Bytes(vel)) {
		if v != 0 {
			t.Fatal("velocities must start zero")
		}
	}
}

func TestPerlinCostScalesWithPixels(t *testing.T) {
	gpu := hw.GTX480()
	small := Perlin{Width: 128, Rows: 16}.GPUCost(gpu)
	big := Perlin{Width: 128, Rows: 64}.GPUCost(gpu)
	ratio := float64(big-gpu.KernelLaunchOverhead) / float64(small-gpu.KernelLaunchOverhead)
	if ratio < 3.8 || ratio > 4.2 {
		t.Fatalf("perlin cost ratio = %v, want ~4", ratio)
	}
}

func TestGatherPosCost(t *testing.T) {
	al := memspace.NewAllocator()
	all := al.Alloc(1 << 20)
	k := GatherPos{AllPos: all}
	if k.GPUCost(hw.GTX480()) <= 0 || k.CPUCost(hw.ClusterNode()) <= 0 {
		t.Fatal("gather costs must be positive")
	}
}
