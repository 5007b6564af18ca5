// Nbody runs the paper's N-Body simulation as OmpSs tasks: one force task
// per block of bodies per iteration, each reading every block of positions
// produced by the previous iteration (the all-to-all redistribution the
// paper describes, handled entirely by the coherence layer):
//
//	go run ./examples/nbody -gpus 4
//	go run ./examples/nbody -nodes 8 -n 20000 -iters 10
//	go run ./examples/nbody -verify
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
		n      = flag.Int("n", 20000, "bodies")
		blocks = flag.Int("blocks", 0, "body blocks (0 = 4 per GPU)")
		iters  = flag.Int("iters", 10, "simulation iterations")
		cache  = flag.String("cache", "wb", "cache policy: nocache, wt, wb")
		verify = flag.Bool("verify", false, "carry real data and check the result")
	)
	flag.Parse()

	cfg := ompss.Config{
		CachePolicy:      ompss.CachePolicy(*cache),
		NonBlockingCache: true,
		SlaveToSlave:     true,
		Presend:          2,
		Validate:         *verify,
	}
	if *nodes > 1 {
		cfg.Cluster = ompss.GPUCluster(*nodes)
	} else {
		cfg.Cluster = ompss.MultiGPUSystem(*gpus)
	}
	if *blocks == 0 {
		*blocks = 4 * cfg.Cluster.TotalGPUs()
	}
	for *n%*blocks != 0 {
		*n++
	}

	p := apps.NBodyParams{N: *n, Blocks: *blocks, Iters: *iters}
	res, err := apps.NBodyOmpSs(cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nbody n=%d blocks=%d iters=%d: %s\n", *n, *blocks, *iters, res)
	if *verify {
		want := fmt.Sprintf("pos-sum=%.3f", apps.NBodySerialSum(p))
		status := "OK"
		if res.Check != want {
			status = fmt.Sprintf("MISMATCH (serial %s)", want)
		}
		fmt.Printf("verify: %s %s\n", res.Check, status)
	}
}
