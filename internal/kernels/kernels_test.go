package kernels

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

func store() *memspace.Store { return memspace.NewStore(memspace.Host(0)) }

func region(alloc *memspace.Allocator, size uint64) memspace.Region {
	return alloc.Alloc(size)
}

// Special values of the exactness table. NaNs are quiet or signalling,
// of either sign, with distinct payloads: when both operands are NaN, the
// result's payload names which one was the destination.
var (
	signedZero = func(r uint32) float32 { return math.Float32frombits(r & 0x80000000) }
	nan        = func(r uint32) float32 { return math.Float32frombits(r&0x807fffff | 0x7f800001) }
	inf        = func(r uint32) float32 { return float32(math.Inf(1 - 2*int(r&1))) }
	subnormal  = func(r uint32) float32 { return math.Float32frombits(r&0x807fffff | 1) }
)

// sgemmValues are the value kinds of TestSgemmMatchesReference. Each
// maps a random word to an element: mostly small integers, with a quarter
// of the kind's special values, so that specials meet each other and
// ordinary data in one product or one sum.
var sgemmValues = []struct {
	name    string
	special func(r uint32) float32 // nil: ordinary data only
	finite  bool                   // the naive ijk check applies
}{
	{"ordinary", nil, true},
	{"signed-zeros", signedZero, true},
	{"nans", nan, false},
	{"infs", inf, false},
	{"subnormals", subnormal, true},
	// -0 in a against an infinite or NaN b is where skipping only +0
	// would show.
	{"mixed", func(r uint32) float32 {
		return []func(uint32) float32{signedZero, nan, inf, subnormal}[r>>8&3](r)
	}, false},
}

// sgemmFill fills v from an LCG with the value kind's mix.
func sgemmFill(v []float32, seed uint32, special func(uint32) float32) {
	s := seed*2654435761 + 12345
	for i := range v {
		s = s*1664525 + 1013904223
		if special != nil && s>>30 == 0 {
			v[i] = special(s * 2891336453)
		} else {
			v[i] = float32(int(s>>24)%7 - 3)
		}
	}
}

// raceBuild is set in race builds (race_test.go).
var raceBuild bool

// Sgemm.Run must give sgemmGo's bits exactly, on sizes around the
// assembly's sixteen- and four-lane steps, and the naive ijk product on
// finite data. In a race build a NaN result need only be a NaN.
func TestSgemmMatchesReference(t *testing.T) {
	for _, n := range []int{8, 15, 16, 17, 33, 128, 130} {
		for _, kind := range sgemmValues {
			t.Run(fmt.Sprintf("%d/%s", n, kind.name), func(t *testing.T) {
				al := memspace.NewAllocator()
				s := store()
				a := region(al, uint64(n*n*4))
				b := region(al, uint64(n*n*4))
				c := region(al, uint64(n*n*4))
				av, bv, cv := f32(s.Bytes(a)), f32(s.Bytes(b)), f32(s.Bytes(c))
				sgemmFill(av, uint32(n), kind.special)
				sgemmFill(bv, uint32(n)+1, kind.special)
				sgemmFill(cv, uint32(n)+2, kind.special)
				c0 := append([]float32(nil), cv...)
				want := append([]float32(nil), cv...)
				sgemmGo(av, bv, want, n)
				Sgemm{A: a, B: b, C: c, BS: n}.Run(s)
				for i := range want {
					if raceBuild && cv[i] != cv[i] && want[i] != want[i] {
						continue
					}
					if math.Float32bits(cv[i]) != math.Float32bits(want[i]) {
						t.Fatalf("element %d = %#08x, sgemmGo %#08x", i, math.Float32bits(cv[i]), math.Float32bits(want[i]))
					}
				}
				if !kind.finite {
					return
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						ref := c0[i*n+j]
						for k := 0; k < n; k++ {
							ref += av[i*n+k] * bv[k*n+j]
						}
						if math.Abs(float64(ref-cv[i*n+j])) > 1e-4 {
							t.Fatalf("element %d = %v, want %v", i*n+j, cv[i*n+j], ref)
						}
					}
				}
			})
		}
	}
}

func TestSgemmCostScalesCubically(t *testing.T) {
	spec := hw.TeslaS2050()
	t1 := Sgemm{BS: 256, A: memspace.Region{Addr: 1, Size: 256 * 256 * 4}}.GPUCost(spec)
	t2 := Sgemm{BS: 512, A: memspace.Region{Addr: 1, Size: 512 * 512 * 4}}.GPUCost(spec)
	ratio := float64(t2-spec.KernelLaunchOverhead) / float64(t1-spec.KernelLaunchOverhead)
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("cost ratio for 2x tile = %v, want ~8 (cubic)", ratio)
	}
	// 1024-tile CUBLAS sgemm on a Fermi should land in single-digit ms.
	t3 := Sgemm{BS: 1024}.GPUCost(spec)
	if t3 < time.Millisecond || t3 > 10*time.Millisecond {
		t.Fatalf("1024 tile sgemm = %v, outside plausible range", t3)
	}
}

func TestStreamOpsCompute(t *testing.T) {
	const n = 64
	al := memspace.NewAllocator()
	s := store()
	a := region(al, n*8)
	b := region(al, n*8)
	c := region(al, n*8)
	av := f64(s.Bytes(a))
	for i := range av {
		av[i] = float64(i)
	}
	StreamCopy{A: a, C: c}.Run(s)
	StreamScale{C: c, B: b, Scalar: 3}.Run(s)
	StreamAdd{A: a, B: b, C: c}.Run(s)
	StreamTriad{B: b, C: c, A: a, Scalar: 2}.Run(s)
	// After the chain: c=a0, b=3a0, c=a0+3a0=4a0, a=3a0+2*4a0=11a0.
	got := f64(s.Bytes(a))
	for i := range got {
		want := 11 * float64(i)
		if got[i] != want {
			t.Fatalf("a[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestStreamCostIsMemoryBound(t *testing.T) {
	spec := hw.GTX480()
	blockBytes := uint64(32 << 20)
	k := StreamTriad{
		B: memspace.Region{Addr: 1, Size: blockBytes},
		C: memspace.Region{Addr: 2, Size: blockBytes},
		A: memspace.Region{Addr: 3, Size: blockBytes},
	}
	got := k.GPUCost(spec)
	wantSec := float64(3*blockBytes) / spec.MemBandwidth
	gotSec := got.Seconds() - spec.KernelLaunchOverhead.Seconds()
	if math.Abs(gotSec-wantSec)/wantSec > 0.05 {
		t.Fatalf("triad cost %v, want ~%vs of memory traffic", got, wantSec)
	}
}

func TestPerlinDeterministicAndBounded(t *testing.T) {
	const w, rows = 64, 16
	al := memspace.NewAllocator()
	s1, s2 := store(), store()
	img := region(al, uint64(w*rows*4))
	k := Perlin{Img: img, Width: w, Row0: 8, Rows: rows, Step: 3}
	k.Run(s1)
	k.Run(s2)
	v1, v2 := f32(s1.Bytes(img)), f32(s2.Bytes(img))
	var nonzero bool
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("pixel %d differs between runs", i)
		}
		if v1[i] < -1.01 || v1[i] > 1.01 {
			t.Fatalf("pixel %d = %v outside [-1,1]", i, v1[i])
		}
		if v1[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("noise is identically zero")
	}
	// A different Step must shift the field.
	s3 := store()
	Perlin{Img: img, Width: w, Row0: 8, Rows: rows, Step: 4}.Run(s3)
	v3 := f32(s3.Bytes(img))
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("step change did not move the noise field")
	}
}

func TestNBodyTwoBodySymmetry(t *testing.T) {
	// Two equal masses attract each other symmetrically: momentum stays ~0.
	const n = 2
	al := memspace.NewAllocator()
	s := store()
	pos := region(al, n*16)
	vel := region(al, n*16)
	out := region(al, n*16)
	pv := f32(s.Bytes(pos))
	// body 0 at (-1,0,0), body 1 at (1,0,0), masses 1.
	pv[0], pv[3] = -1, 1
	pv[4], pv[7] = 1, 1
	k := NBodyStep{AllPos: pos, Vel: vel, OutPos: out, N: n, Block0: 0, BlockN: n, DT: 0.01, Soften2: 1e-6}
	k.Run(s)
	vv := f32(s.Bytes(vel))
	if vv[0] <= 0 || vv[4] >= 0 {
		t.Fatalf("bodies should attract: v0x=%v v1x=%v", vv[0], vv[4])
	}
	if math.Abs(float64(vv[0]+vv[4])) > 1e-5 {
		t.Fatalf("momentum not conserved: %v + %v", vv[0], vv[4])
	}
	ov := f32(s.Bytes(out))
	if ov[0] <= pv[0] || ov[4] >= pv[4] {
		t.Fatalf("positions should move inward: %v %v", ov[0], ov[4])
	}
}

func TestNBodyBlockedMatchesMonolithic(t *testing.T) {
	const n = 16
	al := memspace.NewAllocator()
	mkState := func() (*memspace.Store, memspace.Region, memspace.Region) {
		s := store()
		pos := region(al, n*16)
		vel := region(al, n*16)
		pv, vv := f32(s.Bytes(pos)), f32(s.Bytes(vel))
		for i := 0; i < n; i++ {
			pv[4*i] = float32(i%4) - 1.5
			pv[4*i+1] = float32(i%5) - 2
			pv[4*i+2] = float32(i%3) - 1
			pv[4*i+3] = 1 + float32(i%2)
			vv[4*i] = 0.01 * float32(i)
		}
		return s, pos, vel
	}
	// Monolithic.
	s1, pos1, vel1 := mkState()
	out1 := region(al, n*16)
	NBodyStep{AllPos: pos1, Vel: vel1, OutPos: out1, N: n, Block0: 0, BlockN: n, DT: 0.01, Soften2: 0.01}.Run(s1)
	// Two blocks. Velocity regions are per block.
	s2, pos2, velFull := mkState()
	outA := region(al, (n/2)*16)
	outB := region(al, (n/2)*16)
	velA := region(al, (n/2)*16)
	velB := region(al, (n/2)*16)
	copy(f32(s2.Bytes(velA)), f32(s2.Bytes(velFull))[:n/2*4])
	copy(f32(s2.Bytes(velB)), f32(s2.Bytes(velFull))[n/2*4:])
	NBodyStep{AllPos: pos2, Vel: velA, OutPos: outA, N: n, Block0: 0, BlockN: n / 2, DT: 0.01, Soften2: 0.01}.Run(s2)
	NBodyStep{AllPos: pos2, Vel: velB, OutPos: outB, N: n, Block0: n / 2, BlockN: n / 2, DT: 0.01, Soften2: 0.01}.Run(s2)
	// Gather and compare.
	all2 := region(al, n*16)
	GatherPos{Blocks: []memspace.Region{outA, outB}, AllPos: all2, Counts: []int{n / 2, n / 2}}.Run(s2)
	m, b := f32(s1.Bytes(out1)), f32(s2.Bytes(all2))
	for i := range m {
		if math.Abs(float64(m[i]-b[i])) > 1e-5 {
			t.Fatalf("element %d: monolithic %v vs blocked %v", i, m[i], b[i])
		}
	}
}

func TestSqrtf(t *testing.T) {
	for _, x := range []float32{1e-6, 0.25, 1, 2, 100, 12345.678} {
		got := sqrtf(x)
		want := float32(math.Sqrt(float64(x)))
		if math.Abs(float64(got-want))/float64(want) > 1e-4 {
			t.Fatalf("sqrtf(%v) = %v, want %v", x, got, want)
		}
	}
	if sqrtf(0) != 0 || sqrtf(-1) != 0 {
		t.Fatal("sqrtf edge cases")
	}
}

func TestCPUCostUsesRoofline(t *testing.T) {
	spec := hw.ClusterNode()
	// Compute-bound: sgemm.
	k := Sgemm{BS: 512}
	wantSec := k.flops() / spec.CPUFlops
	if got := k.CPUCost(spec).Seconds(); math.Abs(got-wantSec)/wantSec > 0.01 {
		t.Fatalf("sgemm CPU cost = %v, want %v", got, wantSec)
	}
}

// BenchmarkSgemm times one 128² tile: Run, and the Go loop it replaces on
// amd64. The data are normal floats; subnormals and NaNs slow both.
func BenchmarkSgemm(b *testing.B) {
	const n = 128
	al := memspace.NewAllocator()
	s := store()
	k := Sgemm{A: region(al, n*n*4), B: region(al, n*n*4), C: region(al, n*n*4), BS: n}
	fillTile(f32(s.Bytes(k.A)), 1)
	fillTile(f32(s.Bytes(k.B)), 2)
	b.Run("Run", func(b *testing.B) {
		for range b.N {
			k.Run(s)
		}
	})
	b.Run("sgemmGo", func(b *testing.B) {
		av, bv, cv := f32(s.Bytes(k.A)), f32(s.Bytes(k.B)), f32(s.Bytes(k.C))
		for range b.N {
			sgemmGo(av, bv, cv, n)
		}
	})
}

// BenchmarkJacobiStep times one interior block of 128K cells.
func BenchmarkJacobiStep(b *testing.B) {
	const cells = 128 << 10
	al := memspace.NewAllocator()
	s := store()
	in := region(al, (cells+2)*8)
	k := JacobiStep{In: in, Out: region(al, cells*8), LeftHalo: 1, RightHalo: 1, Alpha: 0.25}
	HeatInit{R: in}.Run(s)
	b.ResetTimer()
	for range b.N {
		k.Run(s)
	}
}
