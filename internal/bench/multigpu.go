package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/apps"
)

// gpuCounts are the paper's multi-GPU configurations.
var gpuCounts = []int{1, 2, 4}

// fig5Params returns the Matmul sizes (paper: 12288 x 12288 in 1024 tiles).
func fig5Params(o Options) apps.MatmulParams {
	if o.Quick {
		return apps.MatmulParams{N: 4096, BS: 512}
	}
	return apps.MatmulParams{N: 12288, BS: 1024}
}

// fig5 reproduces Figure 5: Matmul GFLOPS on the multi-GPU node over the
// cache-policy x scheduler x GPU-count grid.
func fig5(o Options) ([]Row, error) {
	p := fig5Params(o)
	var pts []point
	for _, gpus := range gpuCounts {
		for _, pol := range cachePolicies {
			for _, sch := range schedulers {
				cfg := multiGPUConfig(gpus, pol, sch)
				pts = append(pts, point{
					config: fmt.Sprintf("%dgpu %s %s", gpus, pol, schedLabel(sch)),
					run:    func() (apps.Result, error) { return apps.MatmulOmpSs(cfg, p) },
				})
			}
		}
	}
	return runGrid("fig5", o, pts)
}

// fig6Params returns STREAM sizes (paper: 768 MB of arrays per GPU).
func fig6Params(o Options, gpus int) apps.StreamParams {
	perGPUElems := 32 << 20 // 256 MB per array per GPU
	block := 4 << 20        // 32 MB blocks
	if o.Quick {
		perGPUElems = 4 << 20
		block = 512 << 10
	}
	return apps.StreamParams{N: gpus * perGPUElems, BSize: block, NTimes: 10}
}

// fig6 reproduces Figure 6: STREAM bandwidth on the multi-GPU node.
func fig6(o Options) ([]Row, error) {
	var pts []point
	for _, gpus := range gpuCounts {
		p := fig6Params(o, gpus)
		for _, pol := range cachePolicies {
			for _, sch := range schedulers {
				cfg := multiGPUConfig(gpus, pol, sch)
				pts = append(pts, point{
					config: fmt.Sprintf("%dgpu %s %s", gpus, pol, schedLabel(sch)),
					run:    func() (apps.Result, error) { return apps.StreamOmpSs(cfg, p) },
				})
			}
		}
	}
	return runGrid("fig6", o, pts)
}

// fig7Params returns the Perlin sizes (paper: 1024 x 1024 image).
func fig7Params(o Options, flush bool) apps.PerlinParams {
	p := apps.PerlinParams{Width: 1024, Height: 1024, RowsPerBlock: 64, Steps: 128, Flush: flush}
	if o.Quick {
		p.Steps = 16
	}
	return p
}

// fig7 reproduces Figure 7: Perlin noise Mpixels/s, Flush vs NoFlush.
func fig7(o Options) ([]Row, error) {
	var pts []point
	for _, gpus := range gpuCounts {
		for _, flush := range []bool{true, false} {
			variant := "flush"
			if !flush {
				variant = "noflush"
			}
			p := fig7Params(o, flush)
			for _, pol := range cachePolicies {
				cfg := multiGPUConfig(gpus, pol, defaultSched())
				pts = append(pts, point{
					config: fmt.Sprintf("%dgpu %s %s", gpus, variant, pol),
					run:    func() (apps.Result, error) { return apps.PerlinOmpSs(cfg, p) },
				})
			}
		}
	}
	return runGrid("fig7", o, pts)
}

// fig8Params returns the N-Body sizes (paper: 20000 bodies, 10 iterations).
func fig8Params(o Options, gpus int) apps.NBodyParams {
	p := apps.NBodyParams{N: 20000, Blocks: 4 * gpus, Iters: 10}
	if o.Quick {
		p.N = 9600 // enough compute per task that scaling survives the shrink
	}
	return p
}

// fig8 reproduces Figure 8: N-Body on the multi-GPU node, where the
// no-cache policy outperforms the caching policies. The paper attributes
// this to the application using "a lot of GPU memory", which "fills the
// GPU memory and triggers the replacement mechanism". We recreate that
// regime directly: the software cache is configured smaller than the
// per-GPU working set, so the caching policies evict (with the pool
// bookkeeping cost and in-path writebacks that entails) on essentially
// every task, while no-cache keeps device memory free. See DESIGN.md.
func fig8(o Options) ([]Row, error) {
	var pts []point
	for _, gpus := range gpuCounts {
		p := fig8Params(o, gpus)
		for _, pol := range cachePolicies {
			cfg := multiGPUConfig(gpus, pol, defaultSched())
			// Cap the cache between one task's working set (positions,
			// velocity block, output block — it must fit) and the full
			// per-GPU working set, so caching policies must evict between
			// tasks while no-cache never does.
			posBytes := uint64(p.N) * 16
			blockBytes := uint64(p.N/p.Blocks) * 16
			capBytes := posBytes + 4*blockBytes
			memBytes := cfg.Cluster.Nodes[0].GPUs[0].MemBytes
			cfg.GPUCacheHeadroom = 1 - float64(capBytes)/float64(memBytes)
			pts = append(pts, point{
				config: fmt.Sprintf("%dgpu %s", gpus, pol),
				run:    func() (apps.Result, error) { return apps.NBodyOmpSs(cfg, p) },
			})
		}
	}
	return runGrid("fig8", o, pts)
}
