// Perlin runs the paper's Perlin-noise image filter as OmpSs tasks, in the
// Flush variant (frame copied to host memory after each step) or the
// NoFlush variant (frames stay on the GPUs):
//
//	go run ./examples/perlin -gpus 4 -steps 64
//	go run ./examples/perlin -nodes 4 -flush
//	go run ./examples/perlin -verify
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
		nodes  = flag.Int("nodes", 1, "cluster nodes (1 = single machine)")
		gpus   = flag.Int("gpus", 1, "GPUs per node (multi-GPU system when nodes=1)")
		width  = flag.Int("width", 1024, "image width")
		height = flag.Int("height", 1024, "image height")
		rows   = flag.Int("rows", 64, "rows per block (one task per block per step)")
		steps  = flag.Int("steps", 32, "filter steps")
		flush  = flag.Bool("flush", false, "copy the frame back to the host after every step")
		verify = flag.Bool("verify", false, "carry real data and check the result")
	)
	flag.Parse()

	cfg := ompss.Config{
		NonBlockingCache: true,
		SlaveToSlave:     true,
		Validate:         *verify,
	}
	if *nodes > 1 {
		cfg.Cluster = ompss.GPUCluster(*nodes)
	} else {
		cfg.Cluster = ompss.MultiGPUSystem(*gpus)
	}

	p := apps.PerlinParams{Width: *width, Height: *height, RowsPerBlock: *rows, Steps: *steps, Flush: *flush}
	res, err := apps.PerlinOmpSs(cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	variant := "noflush"
	if *flush {
		variant = "flush"
	}
	fmt.Printf("perlin %dx%d steps=%d (%s): %s\n", *width, *height, *steps, variant, res)
	if *verify {
		want := fmt.Sprintf("img-sum=%.3f", apps.PerlinSerialSum(p))
		status := "OK"
		if res.Check != want {
			status = fmt.Sprintf("MISMATCH (serial %s)", want)
		}
		fmt.Printf("verify: %s %s\n", res.Check, status)
	}
}
