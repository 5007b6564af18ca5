// Heat runs a 1-D Jacobi stencil as OmpSs tasks whose halo reads
// partially overlap the neighbouring blocks — the fragmented-region
// workload — on a configurable simulated machine:
//
//	go run ./examples/heat -nodes 2 -verify
//	go run ./examples/heat -gpus 4 -steps 32
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 2, "cluster nodes (1 = single machine)")
		gpus   = flag.Int("gpus", 1, "GPUs per node (multi-GPU system when nodes=1)")
		cells  = flag.Int("n", 1<<18, "cells in the rod (float64)")
		block  = flag.Int("bsize", 1<<14, "cells per block")
		steps  = flag.Int("steps", 8, "diffusion steps")
		cache  = flag.String("cache", "wb", "cache policy: nocache, wt, wb")
		verify = flag.Bool("verify", false, "carry real data and check the result")
	)
	flag.Parse()

	cfg := ompss.Config{
		CachePolicy:      ompss.CachePolicy(*cache),
		NonBlockingCache: true,
		SlaveToSlave:     true,
		Validate:         *verify,
	}
	if *nodes > 1 {
		cfg.Cluster = ompss.GPUCluster(*nodes)
	} else {
		cfg.Cluster = ompss.MultiGPUSystem(*gpus)
	}

	p := apps.HeatParams{N: *cells, BSize: *block, Steps: *steps}
	res, err := apps.HeatOmpSs(cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat n=%d bsize=%d steps=%d: %s\n", *cells, *block, *steps, res)
	if *verify {
		want := fmt.Sprintf("sum=%.6f", apps.HeatSerialSum(p))
		status := "OK"
		if res.Check != want {
			status = fmt.Sprintf("MISMATCH (serial %s)", want)
		}
		fmt.Printf("verify: %s %s\n", res.Check, status)
	}
}
