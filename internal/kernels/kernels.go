// Package kernels implements the computational bodies of the paper's four
// applications — tiled SGEMM (Matmul), the STREAM operations, a Perlin
// noise generator and an N-Body force step — each as a task.Work with a
// roofline cost model (used by the simulated devices) and a real Go
// implementation (used in validation runs).
//
// The CUDA kernels of the paper are user-provided too ("the generation of
// the kernels themselves is outside the scope of our research"); these Go
// bodies play exactly that role.
package kernels

import (
	"math"
	"time"

	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// cpuCost is the shared roofline for host execution of a kernel.
func cpuCost(spec hw.NodeSpec, flops, bytes float64) time.Duration {
	tc := flops / spec.CPUFlops
	tm := bytes / spec.HostMemBandwidth
	if tm > tc {
		tc = tm
	}
	return time.Duration(tc * 1e9)
}

// Sgemm is C += A*B on BS x BS single-precision tiles, the body the paper
// delegates to CUBLAS sgemm.
type Sgemm struct {
	A, B, C memspace.Region
	BS      int
}

// Name implements task.Work.
func (k Sgemm) Name() string { return "sgemm" }

func (k Sgemm) flops() float64 { return 2 * float64(k.BS) * float64(k.BS) * float64(k.BS) }
func (k Sgemm) bytes() float64 { return 4 * 4 * float64(k.BS) * float64(k.BS) } // 3 reads + 1 write

// GPUCost implements task.Work.
func (k Sgemm) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, k.flops(), k.bytes())
}

// CPUCost implements task.Work.
func (k Sgemm) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, k.flops(), k.bytes())
}

// Run implements task.Work: a cache-friendly ikj triple loop, in SSE2
// assembly on amd64 (sgemm_amd64.s) and sgemmGo elsewhere.
func (k Sgemm) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	a, b, c := f32(store.Bytes(k.A)), f32(store.Bytes(k.B)), f32(store.Bytes(k.C))
	n := k.BS
	sgemm(a[:n*n], b[:n*n], c[:n*n], n)
}

// sgemmGo is c += a*b on n x n row-major tiles. For each element of c it
// adds a[i][k]*b[k][j] for k ascending, skipping a zero a[i][k]. It is the
// body on every GOARCH without an assembly loop, and the reference the
// amd64 loop is tested against bit for bit.
func sgemmGo(a, b, c []float32, n int) {
	for i := 0; i < n; i++ {
		ai := a[i*n : (i+1)*n]
		ci := c[i*n : (i+1)*n]
		for kk := 0; kk < n; kk++ {
			aik := ai[kk]
			if aik == 0 {
				continue
			}
			bk := b[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// fillTile fills a tile with a deterministic pattern for seed, from a
// small LCG.
func fillTile(v []float32, seed uint32) {
	s := seed*2654435761 + 12345
	for i := range v {
		s = s*1664525 + 1013904223
		v[i] = float32(s%1000) / 1000
	}
}

// STREAM kernels operate on blocks of float64 vectors, as the original
// benchmark does. Each kernel reads/writes whole blocks.

// StreamCopy is c[i] = a[i].
type StreamCopy struct{ A, C memspace.Region }

// Name implements task.Work.
func (k StreamCopy) Name() string { return "copy" }

// GPUCost implements task.Work.
func (k StreamCopy) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, float64(k.A.Size+k.C.Size))
}

// CPUCost implements task.Work.
func (k StreamCopy) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, float64(k.A.Size+k.C.Size))
}

// Run implements task.Work.
func (k StreamCopy) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	copy(f64(store.Bytes(k.C)), f64(store.Bytes(k.A)))
}

// StreamScale is b[i] = scalar * c[i].
type StreamScale struct {
	C, B   memspace.Region
	Scalar float64
}

// Name implements task.Work.
func (k StreamScale) Name() string { return "scale" }

// GPUCost implements task.Work.
func (k StreamScale) GPUCost(spec hw.GPUSpec) time.Duration {
	n := float64(k.C.Size) / 8
	return gpusim.KernelCost(spec, n, float64(k.C.Size+k.B.Size))
}

// CPUCost implements task.Work.
func (k StreamScale) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, float64(k.C.Size)/8, float64(k.C.Size+k.B.Size))
}

// Run implements task.Work.
func (k StreamScale) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	c, b := f64(store.Bytes(k.C)), f64(store.Bytes(k.B))
	for i := range b {
		b[i] = k.Scalar * c[i]
	}
}

// StreamAdd is c[i] = a[i] + b[i].
type StreamAdd struct{ A, B, C memspace.Region }

// Name implements task.Work.
func (k StreamAdd) Name() string { return "add" }

// GPUCost implements task.Work.
func (k StreamAdd) GPUCost(spec hw.GPUSpec) time.Duration {
	n := float64(k.A.Size) / 8
	return gpusim.KernelCost(spec, n, float64(k.A.Size+k.B.Size+k.C.Size))
}

// CPUCost implements task.Work.
func (k StreamAdd) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, float64(k.A.Size)/8, float64(k.A.Size+k.B.Size+k.C.Size))
}

// Run implements task.Work.
func (k StreamAdd) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	a, b, c := f64(store.Bytes(k.A)), f64(store.Bytes(k.B)), f64(store.Bytes(k.C))
	for i := range c {
		c[i] = a[i] + b[i]
	}
}

// StreamTriad is a[i] = b[i] + scalar * c[i].
type StreamTriad struct {
	B, C, A memspace.Region
	Scalar  float64
}

// Name implements task.Work.
func (k StreamTriad) Name() string { return "triad" }

// GPUCost implements task.Work.
func (k StreamTriad) GPUCost(spec hw.GPUSpec) time.Duration {
	n := float64(k.A.Size) / 8
	return gpusim.KernelCost(spec, 2*n, float64(k.A.Size+k.B.Size+k.C.Size))
}

// CPUCost implements task.Work.
func (k StreamTriad) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 2*float64(k.A.Size)/8, float64(k.A.Size+k.B.Size+k.C.Size))
}

// Run implements task.Work.
func (k StreamTriad) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	b, c, a := f64(store.Bytes(k.B)), f64(store.Bytes(k.C)), f64(store.Bytes(k.A))
	for i := range a {
		a[i] = b[i] + k.Scalar*c[i]
	}
}

// perlinFlopsPerPixel approximates the transcendental-heavy cost of the
// noise function per output pixel.
const perlinFlopsPerPixel = 256

// Perlin generates a block of rows of Perlin noise into Img (float32 per
// pixel). The image is Width pixels wide; the block covers Rows rows
// starting at Row0. Step shifts the noise field per filter iteration.
type Perlin struct {
	Img   memspace.Region
	Width int
	Row0  int
	Rows  int
	Step  int
}

// Name implements task.Work.
func (k Perlin) Name() string { return "perlin" }

func (k Perlin) pixels() float64 { return float64(k.Width) * float64(k.Rows) }

// GPUCost implements task.Work.
func (k Perlin) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, k.pixels()*perlinFlopsPerPixel, k.pixels()*4)
}

// CPUCost implements task.Work.
func (k Perlin) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, k.pixels()*perlinFlopsPerPixel, k.pixels()*4)
}

// Run implements task.Work: classic gradient noise over a permutation
// table, written into the block's float32 pixels.
func (k Perlin) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	img := f32(store.Bytes(k.Img))
	for y := 0; y < k.Rows; y++ {
		gy := float64(k.Row0+y+k.Step) * 0.037
		row := img[y*k.Width : (y+1)*k.Width]
		for x := 0; x < k.Width; x++ {
			gx := float64(x+k.Step) * 0.053
			row[x] = float32(noise2(gx, gy))
		}
	}
}

// perm is Ken Perlin's reference permutation table.
var perm = func() [512]int {
	base := [256]int{151, 160, 137, 91, 90, 15, 131, 13, 201, 95, 96, 53, 194, 233, 7, 225,
		140, 36, 103, 30, 69, 142, 8, 99, 37, 240, 21, 10, 23, 190, 6, 148,
		247, 120, 234, 75, 0, 26, 197, 62, 94, 252, 219, 203, 117, 35, 11, 32,
		57, 177, 33, 88, 237, 149, 56, 87, 174, 20, 125, 136, 171, 168, 68, 175,
		74, 165, 71, 134, 139, 48, 27, 166, 77, 146, 158, 231, 83, 111, 229, 122,
		60, 211, 133, 230, 220, 105, 92, 41, 55, 46, 245, 40, 244, 102, 143, 54,
		65, 25, 63, 161, 1, 216, 80, 73, 209, 76, 132, 187, 208, 89, 18, 169,
		200, 196, 135, 130, 116, 188, 159, 86, 164, 100, 109, 198, 173, 186, 3, 64,
		52, 217, 226, 250, 124, 123, 5, 202, 38, 147, 118, 126, 255, 82, 85, 212,
		207, 206, 59, 227, 47, 16, 58, 17, 182, 189, 28, 42, 223, 183, 170, 213,
		119, 248, 152, 2, 44, 154, 163, 70, 221, 153, 101, 155, 167, 43, 172, 9,
		129, 22, 39, 253, 19, 98, 108, 110, 79, 113, 224, 232, 178, 185, 112, 104,
		218, 246, 97, 228, 251, 34, 242, 193, 238, 210, 144, 12, 191, 179, 162, 241,
		81, 51, 145, 235, 249, 14, 239, 107, 49, 192, 214, 31, 181, 199, 106, 157,
		184, 84, 204, 176, 115, 121, 50, 45, 127, 4, 150, 254, 138, 236, 205, 93,
		222, 114, 67, 29, 24, 72, 243, 141, 128, 195, 78, 66, 215, 61, 156, 180}
	var p [512]int
	for i := range p {
		p[i] = base[i&255]
	}
	return p
}()

func fade(t float64) float64 { return t * t * t * (t*(t*6-15) + 10) }
func lerp(t, a, b float64) float64 {
	return a + t*(b-a)
}

func grad2(h int, x, y float64) float64 {
	switch h & 3 {
	case 0:
		return x + y
	case 1:
		return -x + y
	case 2:
		return x - y
	default:
		return -x - y
	}
}

// noise2 is 2D Perlin gradient noise in [-1, 1].
func noise2(x, y float64) float64 {
	xi := int(floor(x)) & 255
	yi := int(floor(y)) & 255
	xf := x - floor(x)
	yf := y - floor(y)
	u, v := fade(xf), fade(yf)
	aa := perm[perm[xi]+yi]
	ab := perm[perm[xi]+yi+1]
	ba := perm[perm[xi+1]+yi]
	bb := perm[perm[xi+1]+yi+1]
	return lerp(v,
		lerp(u, grad2(aa, xf, yf), grad2(ba, xf-1, yf)),
		lerp(u, grad2(ab, xf, yf-1), grad2(bb, xf-1, yf-1)))
}

func floor(x float64) float64 {
	i := float64(int64(x))
	if x < i {
		return i - 1
	}
	return i
}

// nbodyFlopsPerInteraction matches the usual count for the NVIDIA n-body
// example kernel (rsqrt-based force evaluation).
const nbodyFlopsPerInteraction = 20

// NBodyStep advances one block of bodies against all bodies: it reads the
// whole position array (AllPos), integrates the block's velocities (Vel,
// inout) and writes the block's next positions (OutPos). Positions are
// float32 x,y,z,m quadruples; velocities x,y,z padded to 4.
type NBodyStep struct {
	AllPos  memspace.Region // all N bodies' current positions
	Vel     memspace.Region // this block's velocities (inout)
	OutPos  memspace.Region // this block's next positions (output)
	N       int             // total bodies
	Block0  int             // first body of the block
	BlockN  int             // bodies in the block
	DT      float32
	Soften2 float32
}

// Name implements task.Work.
func (k NBodyStep) Name() string { return "nbody" }

func (k NBodyStep) flops() float64 {
	return nbodyFlopsPerInteraction * float64(k.N) * float64(k.BlockN)
}

// GPUCost implements task.Work.
func (k NBodyStep) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, k.flops(), float64(k.AllPos.Size+k.Vel.Size+k.OutPos.Size))
}

// CPUCost implements task.Work.
func (k NBodyStep) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, k.flops(), float64(k.AllPos.Size+k.Vel.Size+k.OutPos.Size))
}

// Run implements task.Work: all-pairs gravity with softening, leapfrog-ish
// integration identical to the CUDA sample's structure.
func (k NBodyStep) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	pos := f32(store.Bytes(k.AllPos))
	vel := f32(store.Bytes(k.Vel))
	out := f32(store.Bytes(k.OutPos))
	for bi := 0; bi < k.BlockN; bi++ {
		i := k.Block0 + bi
		px, py, pz := pos[4*i], pos[4*i+1], pos[4*i+2]
		var ax, ay, az float32
		for j := 0; j < k.N; j++ {
			dx := pos[4*j] - px
			dy := pos[4*j+1] - py
			dz := pos[4*j+2] - pz
			d2 := dx*dx + dy*dy + dz*dz + k.Soften2
			inv := 1 / sqrtf(d2)
			inv3 := inv * inv * inv * pos[4*j+3] // mass
			ax += dx * inv3
			ay += dy * inv3
			az += dz * inv3
		}
		vel[4*bi] += ax * k.DT
		vel[4*bi+1] += ay * k.DT
		vel[4*bi+2] += az * k.DT
		out[4*bi] = px + vel[4*bi]*k.DT
		out[4*bi+1] = py + vel[4*bi+1]*k.DT
		out[4*bi+2] = pz + vel[4*bi+2]*k.DT
		out[4*bi+3] = pos[4*i+3]
	}
}

func sqrtf(x float32) float32 {
	if x <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(x)))
}

// GatherPos concatenates the per-block next positions into the shared
// position array for the following iteration (the all-to-all distribution
// step of the paper's N-Body).
type GatherPos struct {
	Blocks []memspace.Region
	AllPos memspace.Region
	Counts []int // bodies per block
}

// Name implements task.Work.
func (k GatherPos) Name() string { return "gather" }

// GPUCost implements task.Work.
func (k GatherPos) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, 2*float64(k.AllPos.Size))
}

// CPUCost implements task.Work.
func (k GatherPos) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, 2*float64(k.AllPos.Size))
}

// Run implements task.Work.
func (k GatherPos) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	all := f32(store.Bytes(k.AllPos))
	off := 0
	for bi, r := range k.Blocks {
		blk := f32(store.Bytes(r))
		n := k.Counts[bi] * 4
		copy(all[off:off+n], blk[:n])
		off += n
	}
}

// NBodyForces advances one block of bodies against all bodies, reading the
// positions as the per-block regions produced by the previous iteration
// (the all-to-all distribution happens region by region through the
// coherence layer, with no central gather). PrevBlocks are ordered by
// block index and concatenate to the full body array.
type NBodyForces struct {
	PrevBlocks []memspace.Region
	Vel        memspace.Region // this block's velocities (inout)
	Out        memspace.Region // this block's next positions (output)
	N          int
	Block0     int
	BlockN     int
	DT         float32
	Soften2    float32
}

// Name implements task.Work.
func (k NBodyForces) Name() string { return "nbody-forces" }

func (k NBodyForces) flops() float64 {
	return nbodyFlopsPerInteraction * float64(k.N) * float64(k.BlockN)
}

func (k NBodyForces) bytes() float64 {
	var b float64
	for _, r := range k.PrevBlocks {
		b += float64(r.Size)
	}
	return b + float64(k.Vel.Size+k.Out.Size)
}

// GPUCost implements task.Work.
func (k NBodyForces) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, k.flops(), k.bytes())
}

// CPUCost implements task.Work.
func (k NBodyForces) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, k.flops(), k.bytes())
}

// Run implements task.Work.
func (k NBodyForces) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	// Assemble the position view block by block (zero-copy per block).
	views := make([][]float32, len(k.PrevBlocks))
	for i, r := range k.PrevBlocks {
		views[i] = f32(store.Bytes(r))
	}
	at := func(j int) []float32 {
		bi := 0
		for j*4 >= len(views[bi]) {
			j -= len(views[bi]) / 4
			bi++
		}
		return views[bi][4*j : 4*j+4]
	}
	vel := f32(store.Bytes(k.Vel))
	out := f32(store.Bytes(k.Out))
	for bi := 0; bi < k.BlockN; bi++ {
		me := at(k.Block0 + bi)
		px, py, pz := me[0], me[1], me[2]
		var ax, ay, az float32
		for j := 0; j < k.N; j++ {
			pj := at(j)
			dx := pj[0] - px
			dy := pj[1] - py
			dz := pj[2] - pz
			d2 := dx*dx + dy*dy + dz*dz + k.Soften2
			inv := 1 / sqrtf(d2)
			inv3 := inv * inv * inv * pj[3]
			ax += dx * inv3
			ay += dy * inv3
			az += dz * inv3
		}
		vel[4*bi] += ax * k.DT
		vel[4*bi+1] += ay * k.DT
		vel[4*bi+2] += az * k.DT
		out[4*bi] = px + vel[4*bi]*k.DT
		out[4*bi+1] = py + vel[4*bi+1]*k.DT
		out[4*bi+2] = pz + vel[4*bi+2]*k.DT
		out[4*bi+3] = me[3]
	}
}

// StreamInit fills one block triple with STREAM's initial values
// (a=1, b=2, c=0), costed as pure write bandwidth.
type StreamInit struct {
	A, B, C memspace.Region
}

// Name implements task.Work.
func (k StreamInit) Name() string { return "stream-init" }

func (k StreamInit) bytes() float64 { return float64(k.A.Size + k.B.Size + k.C.Size) }

// GPUCost implements task.Work.
func (k StreamInit) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, k.bytes())
}

// CPUCost implements task.Work.
func (k StreamInit) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, k.bytes())
}

// Run implements task.Work.
func (k StreamInit) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	a, b, c := f64(store.Bytes(k.A)), f64(store.Bytes(k.B)), f64(store.Bytes(k.C))
	for i := range a {
		a[i], b[i], c[i] = 1, 2, 0
	}
}

// FillChunk initializes a set of matrix tiles, each with fillTile's
// deterministic pattern for its seed; ZeroSeed zeroes a tile.
// It is the body of the parallel-initialization tasks of the cluster
// Matmul experiment (one chunk per node).
type FillChunk struct {
	Tiles []memspace.Region
	Seeds []uint32
}

// ZeroSeed marks a tile that should be zero.
const ZeroSeed = ^uint32(0)

// Name implements task.Work.
func (k FillChunk) Name() string { return "fill-chunk" }

func (k FillChunk) bytes() float64 {
	var n float64
	for _, t := range k.Tiles {
		n += float64(t.Size)
	}
	return n
}

// GPUCost implements task.Work.
func (k FillChunk) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, k.bytes())
}

// CPUCost implements task.Work.
func (k FillChunk) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, k.bytes())
}

// Run implements task.Work.
func (k FillChunk) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	for i, t := range k.Tiles {
		// Zeroed explicitly: the task declares Out(t), so the body owns
		// every byte of it, whatever the store held before.
		if k.Seeds[i] == ZeroSeed {
			clear(store.Bytes(t))
			continue
		}
		fillTile(f32(store.Bytes(t)), k.Seeds[i])
	}
}

// The heat kernels implement a 1-D Jacobi diffusion step over a blocked
// rod of float64 cells. Each step task reads its block plus one halo cell
// on each interior side — a region that partially overlaps the
// neighbouring blocks — so the stencil exercises the fragment-based
// dependence and coherence tracking end to end.

// HeatCell is the deterministic initial temperature of global cell i,
// shared by the parallel init tasks and the serial reference.
func HeatCell(i int) float64 { return float64((i*31)%97) / 97 }

// HeatInit fills one block of the rod with the initial profile.
type HeatInit struct {
	R      memspace.Region
	Block0 int // global index of the block's first cell
}

// Name implements task.Work.
func (k HeatInit) Name() string { return "heat-init" }

// GPUCost implements task.Work (pure write bandwidth).
func (k HeatInit) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, float64(k.R.Size))
}

// CPUCost implements task.Work.
func (k HeatInit) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, float64(k.R.Size))
}

// Run implements task.Work.
func (k HeatInit) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	v := f64(store.Bytes(k.R))
	for i := range v {
		v[i] = HeatCell(k.Block0 + i)
	}
}

// JacobiStep computes one diffusion step for one block:
//
//	out[i] = in[i] + alpha*(in[i-1] - 2*in[i] + in[i+1])
//
// with the rod's two boundary cells held fixed (Dirichlet). In covers the
// block plus LeftHalo/RightHalo extra cells (0 at the rod's edges).
type JacobiStep struct {
	In, Out   memspace.Region
	LeftHalo  int
	RightHalo int
	Alpha     float64
}

// Name implements task.Work.
func (k JacobiStep) Name() string { return "jacobi" }

func (k JacobiStep) cells() float64 { return float64(k.Out.Size) / 8 }

// GPUCost implements task.Work.
func (k JacobiStep) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 4*k.cells(), float64(k.In.Size+k.Out.Size))
}

// CPUCost implements task.Work.
func (k JacobiStep) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 4*k.cells(), float64(k.In.Size+k.Out.Size))
}

// Run implements task.Work. The arithmetic matches the serial reference
// expression for expression, so validated runs compare bit-identical.
func (k JacobiStep) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	in := f64(store.Bytes(k.In))
	out := f64(store.Bytes(k.Out))
	n := len(out)
	h := k.LeftHalo
	lo, hi := 0, n
	if h == 0 {
		out[0] = in[0] // fixed boundary cell
		lo = 1
	}
	if k.RightHalo == 0 {
		out[n-1] = in[n-1+h]
		hi = n - 1
	}
	for i := lo; i < hi; i++ {
		j := i + h
		out[i] = in[j] + k.Alpha*(in[j-1]-2*in[j]+in[j+1])
	}
}

// NBodyInit fills one block's initial positions (from the deterministic
// global sequence produced by InitPos) and zeroes its velocities.
type NBodyInit struct {
	Pos, Vel memspace.Region
	Block0   int
	// InitPos produces the first n bodies of the shared initial state.
	InitPos func(n int) []float32
}

// Name implements task.Work.
func (k NBodyInit) Name() string { return "nbody-init" }

// GPUCost implements task.Work.
func (k NBodyInit) GPUCost(spec hw.GPUSpec) time.Duration {
	return gpusim.KernelCost(spec, 0, float64(k.Pos.Size+k.Vel.Size))
}

// CPUCost implements task.Work.
func (k NBodyInit) CPUCost(spec hw.NodeSpec) time.Duration {
	return cpuCost(spec, 0, float64(k.Pos.Size+k.Vel.Size))
}

// Run implements task.Work.
func (k NBodyInit) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	n := int(k.Pos.Size / 16)
	all := k.InitPos(k.Block0 + n)
	copy(f32(store.Bytes(k.Pos)), all[4*k.Block0:])
	// Zero the velocities explicitly rather than relying on the backing
	// store being freshly allocated: the task declares Out(Vel), so the
	// body owns every byte of it.
	clear(store.Bytes(k.Vel))
}
