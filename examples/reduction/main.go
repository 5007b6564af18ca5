// Reduction demonstrates the reduction clause (the paper's Section VII
// future work, implemented by this runtime): a dot product whose partial
// sums accumulate concurrently into per-GPU private copies, combined by
// the runtime before the result is read.
//
//	go run ./examples/reduction -gpus 4 -n 8388608
package main

import (
	"flag"
	"fmt"
	"log"
	"time"
	"unsafe"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

func f32(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// dotChunk computes the dot product of one chunk of x and y and adds it
// into acc[0].
type dotChunk struct {
	x, y, acc ompss.Region
}

func (w dotChunk) Name() string { return "dot" }

func (w dotChunk) GPUCost(spec hw.GPUSpec) time.Duration {
	n := float64(w.x.Size) / 4
	t := 2 * n / spec.EffectiveFlops()
	if m := float64(w.x.Size+w.y.Size) / spec.MemBandwidth; m > t {
		t = m
	}
	return spec.KernelLaunchOverhead + time.Duration(t*1e9)
}

func (w dotChunk) CPUCost(spec hw.NodeSpec) time.Duration {
	return time.Duration(2 * float64(w.x.Size) / 4 / spec.CPUFlops * 1e9)
}

func (w dotChunk) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	x, y := f32(store.Bytes(w.x)), f32(store.Bytes(w.y))
	acc := f32(store.Bytes(w.acc))
	var s float32
	for i := range x {
		s += x[i] * y[i]
	}
	acc[0] += s
}

func main() {
	var (
		gpus   = flag.Int("gpus", 4, "GPUs in the node")
		n      = flag.Int("n", 1<<23, "vector elements")
		chunks = flag.Int("chunks", 16, "reduction tasks")
	)
	flag.Parse()
	per := *n / *chunks

	rt := ompss.New(ompss.Config{Cluster: ompss.MultiGPUSystem(*gpus), Validate: true})
	var got float32
	var want float64
	stats, err := rt.Run(func(ctx *ompss.Context) {
		acc := ctx.Alloc(16)
		ctx.InitSeq(acc, nil)
		for c := 0; c < *chunks; c++ {
			x := ctx.Alloc(uint64(per) * 4)
			y := ctx.Alloc(uint64(per) * 4)
			val := float32(c%5 + 1)
			ctx.InitSeq(x, func(b []byte) {
				v := f32(b)
				for i := range v {
					v[i] = val
				}
			})
			ctx.InitSeq(y, func(b []byte) {
				v := f32(b)
				for i := range v {
					v[i] = 2
				}
			})
			want += float64(val) * 2 * float64(per)
			// The reduction clause: no ordering between the chunk tasks.
			ctx.Task(dotChunk{x: x, y: y, acc: acc},
				ompss.Target(ompss.CUDA), ompss.In(x, y), ompss.Reduction(acc, ompss.SumFloat32))
		}
		ctx.TaskWait()
		got = f32(ctx.HostBytes(acc))[0]
		fmt.Printf("dot = %v (want %v), virtual time %v\n", got, want, ctx.Now())
	})
	if err != nil {
		log.Fatal(err)
	}
	if float64(got) != want {
		log.Fatalf("dot = %v, want %v", got, want)
	}
	fmt.Printf("%d reduction tasks over %d GPUs, %d partial combines (writebacks: %d)\n",
		*chunks, *gpus, stats.Writebacks, stats.Writebacks)
}
