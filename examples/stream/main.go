// Stream runs the paper's Figure 2 program — the STREAM benchmark as OmpSs
// tasks over blocked arrays — on a configurable simulated machine:
//
//	go run ./examples/stream -gpus 4 -cache wb
//	go run ./examples/stream -nodes 8
//	go run ./examples/stream -verify
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
		elems  = flag.Int("n", 1<<22, "elements per array (float64)")
		block  = flag.Int("bsize", 1<<19, "elements per block")
		ntimes = flag.Int("ntimes", 10, "benchmark repetitions")
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

	p := apps.StreamParams{N: *elems, BSize: *block, NTimes: *ntimes}
	res, err := apps.StreamOmpSs(cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream n=%d bsize=%d ntimes=%d: %s\n", *elems, *block, *ntimes, res)
	if *verify {
		want := fmt.Sprintf("a-sum=%.1f", apps.StreamSerialASum(p.N, p.NTimes))
		status := "OK"
		if res.Check != want {
			status = fmt.Sprintf("MISMATCH (serial %s)", want)
		}
		fmt.Printf("verify: %s %s\n", res.Check, status)
	}
}
