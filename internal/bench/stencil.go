package bench

import (
	"fmt"
	"runtime"

	"github.com/bsc-repro/ompss/internal/apps"
)

// heatParams returns the stencil sizes: one million cells per node, eight
// diffusion steps.
func heatParams(o Options, nodes int) apps.HeatParams {
	if o.Quick {
		return apps.HeatParams{N: nodes * (64 << 10), BSize: 8 << 10, Steps: 4}
	}
	return apps.HeatParams{N: nodes * (1 << 20), BSize: 128 << 10, Steps: 8}
}

// heat runs the Jacobi stencil on the GPU cluster. The halo reads
// partially overlap the neighbouring blocks, so the experiment exercises
// the fragmented-region paths — overlap dependences, fragment assembly,
// partial invalidation — end to end (the paper's own grid has no
// partially-overlapping workload). Every point carries real data and is
// checked against the serial reference checksum, which a goroutine of its
// own computes beside the run. A point ends by collecting its garbage: the
// run's stores die with it, and the next point must not allocate its own
// on top of them while the collector has yet to come round.
func heat(o Options) ([]Row, error) {
	var pts []point
	for _, nodes := range nodeCounts {
		p := heatParams(o, nodes)
		cfg := clusterConfig("heat", o, nodes)
		cfg.SlaveToSlave = true
		cfg.Validate = true
		pts = append(pts, point{
			config: fmt.Sprintf("%dnode ompss", nodes),
			run: func() (apps.Result, error) {
				ref := make(chan float64, 1)
				go func() { ref <- apps.HeatSerialSum(p) }()
				res, err := apps.HeatOmpSs(cfg, p)
				want := fmt.Sprintf("sum=%.6f", <-ref)
				if err == nil && res.Check != want {
					err = fmt.Errorf("heat checksum %s, want %s", res.Check, want)
				}
				runtime.GC()
				return res, err
			},
		})
	}
	return runGrid("heat", o, pts)
}
