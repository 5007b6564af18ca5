// Quickstart: a complete OmpSs program against the public API.
//
// A vector is initialized on the host, two dependent CUDA tasks transform
// it on a (simulated) GPU, and taskwait brings the result home — the
// runtime moves all data automatically, like the paper's Figure 1 program.
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"
	"unsafe"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// f32 reinterprets a backing byte buffer as float32s, the way kernels
// access their regions.
func f32(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// saxpy is a user-provided kernel: y += a*x, with a roofline cost model
// (what the simulated GPU charges) and a real body (what validation runs).
type saxpy struct {
	x, y ompss.Region
	a    float32
}

func (k saxpy) Name() string { return "saxpy" }

func (k saxpy) GPUCost(spec hw.GPUSpec) time.Duration {
	n := float64(k.x.Size) / 4
	return time.Duration((2 * n / spec.EffectiveFlops()) * 1e9)
}

func (k saxpy) CPUCost(spec hw.NodeSpec) time.Duration {
	n := float64(k.x.Size) / 4
	return time.Duration((2 * n / spec.CPUFlops) * 1e9)
}

func (k saxpy) Run(store *memspace.Store) {
	if store == nil {
		return // cost-only run
	}
	x, y := f32(store.Bytes(k.x)), f32(store.Bytes(k.y))
	for i := range y {
		y[i] += k.a * x[i]
	}
}

func fillFloats(b []byte, v float32) {
	f := f32(b)
	for i := range f {
		f[i] = v
	}
}

func main() {
	const n = 1 << 20 // 1M floats

	cfg := ompss.Config{
		Cluster:  ompss.MultiGPUSystem(1), // one Tesla S2050-class GPU
		Validate: true,                    // carry real bytes so the result can be checked
	}
	rt := ompss.New(cfg)

	var y0 float32
	stats, err := rt.Run(func(ctx *ompss.Context) {
		x := ctx.Alloc(n * 4)
		y := ctx.Alloc(n * 4)
		ctx.InitSeq(x, func(b []byte) { fillFloats(b, 1) })
		ctx.InitSeq(y, func(b []byte) { fillFloats(b, 2) })

		// #pragma omp target device(cuda) copy_deps
		// #pragma omp task input(x) inout(y)
		ctx.Task(saxpy{x: x, y: y, a: 3}, ompss.Target(ompss.CUDA), ompss.In(x), ompss.InOut(y))
		ctx.Task(saxpy{x: x, y: y, a: 2}, ompss.Target(ompss.CUDA), ompss.In(x), ompss.InOut(y))
		ctx.TaskWait()

		y0 = f32(ctx.HostBytes(y))[0]
		fmt.Printf("y[0] = %v (want 7: 2 + 3*1 + 2*1)\n", y0)
		fmt.Printf("virtual time: %v\n", ctx.Now())
	})
	if err != nil {
		log.Fatal(err)
	}
	if y0 != 7 {
		log.Fatalf("y[0] = %v, want 7", y0)
	}
	fmt.Printf("CUDA tasks: %d, H2D: %d bytes, D2H: %d bytes, cache hits: %d\n",
		stats.TasksCUDA, stats.BytesH2D, stats.BytesD2H, stats.CacheHits)
}
