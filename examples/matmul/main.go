// Matmul runs the paper's tiled matrix multiplication (Figure 1) on a
// configurable simulated machine — the same program scales from one GPU to
// a multi-GPU node to a GPU cluster, selected entirely by flags:
//
//	go run ./examples/matmul -gpus 4                      # multi-GPU node
//	go run ./examples/matmul -nodes 8 -init smp -presend 2 # GPU cluster
//	go run ./examples/matmul -nodes 2 -verify             # check the numbers
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 1, "cluster nodes (1 = single machine)")
		gpus      = flag.Int("gpus", 1, "GPUs per node (multi-GPU system when nodes=1)")
		n         = flag.Int("n", 4096, "matrix dimension")
		bs        = flag.Int("bs", 512, "tile dimension")
		schedP    = flag.String("sched", "dependencies", "scheduler: bf, dependencies, affinity")
		cache     = flag.String("cache", "wb", "cache policy: nocache, wt, wb")
		initM     = flag.String("init", "seq", "initialization: seq, smp, gpu")
		presend   = flag.Int("presend", 2, "tasks present to remote nodes")
		stos      = flag.Bool("stos", true, "allow slave-to-slave transfers")
		verify    = flag.Bool("verify", false, "carry real data and check the result")
		showTrace = flag.Bool("trace", false, "print an execution Gantt chart and span summary")
	)
	flag.Parse()

	var rec *ompss.Trace
	cfg := ompss.Config{
		Scheduler:        ompss.Policy(*schedP),
		CachePolicy:      ompss.CachePolicy(*cache),
		NonBlockingCache: true,
		SlaveToSlave:     *stos,
		Presend:          *presend,
		Validate:         *verify,
	}
	if *nodes > 1 {
		cfg.Cluster = ompss.GPUCluster(*nodes)
	} else {
		cfg.Cluster = ompss.MultiGPUSystem(*gpus)
	}
	if *showTrace {
		rec = ompss.NewTrace()
		cfg.Trace = rec
	}

	p := apps.MatmulParams{N: *n, BS: *bs, Init: apps.InitMode(*initM)}
	res, err := apps.MatmulOmpSs(cfg, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matmul %dx%d (tiles %d): %s\n", *n, *n, *bs, res)
	if *verify {
		want := fmt.Sprintf("checksum=%.3f", serialChecksum(p))
		status := "OK"
		if res.Check != want {
			status = fmt.Sprintf("MISMATCH (serial %s)", want)
		}
		fmt.Printf("verify: %s %s\n", res.Check, status)
	}
	s := res.Stats
	fmt.Printf("tasks: %d cuda / %d smp (%d remote), network: %d MB (StoS %d MB), GPU traffic: %d MB in / %d MB out\n",
		s.TasksCUDA, s.TasksSMP, s.TasksRemote, s.NetBytes>>20, s.BytesStoS>>20, s.BytesH2D>>20, s.BytesD2H>>20)
	if rec != nil {
		fmt.Println()
		if err := rec.Gantt(os.Stdout, 100); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		sum := rec.Summary()
		kinds := make([]string, 0, len(sum))
		for k := range sum {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			e := sum[kind]
			fmt.Printf("%-6s %6d spans  %8d MB  %v\n", kind, e.Count, e.Bytes>>20, e.Time)
		}
	}
}

func serialChecksum(p apps.MatmulParams) float64 {
	var sum float64
	for _, tile := range apps.MatmulSerialOut(p.N, p.BS) {
		for _, v := range tile {
			sum += float64(v)
		}
	}
	return sum
}
