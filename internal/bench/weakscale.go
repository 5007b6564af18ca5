package bench

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// The weakscale experiment measures where the centralized manager design
// saturates and the sharded one (Config.ManagerShards, internal/dmgr)
// does not. The cluster weak-scales 8 -> 64 -> 256 simulated nodes with a
// fixed per-node workload (chains of dependent SMP tasks over per-chain
// regions), and every row runs with the manager service model armed
// (ManagerOpCost > 0): each directory/dependence operation occupies the
// owning shard's FCFS queue. Centralized means one shard — one queue that
// every operation in the machine serializes through, so its tasks/sec
// plateaus as nodes grow; sharded spreads the same operations over
// nodes/4 queues served in parallel and keeps scaling. Both rows report
// *virtual-time* tasks/sec, so the numbers are deterministic and the
// benchmark's weakscale golden compares them exactly.
//
// The verify points are the checksum gate: the same validated Matmul runs
// centralized (shards=1) and sharded (shards=4) and must produce
// bit-equal result checksums — sharding moves manager work, never
// results. cmd/smoke_test.go runs these in CI.

const (
	// weakChainBytes is one chain's allocation: a full ownership block,
	// so consecutive chains land in distinct blocks and spread across
	// shards deterministically.
	weakChainBytes = 1 << 18
	// weakDepBytes is the dependence (and wire-transfer) region within
	// the chain's block: small, so manager/submission time dominates the
	// measurement rather than bulk bandwidth.
	weakDepBytes = 256
	// weakOpCost is the modeled service time of one manager operation.
	weakOpCost = 2 * time.Microsecond
	// weakTaskCost is the modeled CPU time of one chain task.
	weakTaskCost = 20 * time.Microsecond
)

// weakscaleShards is the sharding rule of the sharded rows: one manager
// per four nodes.
func weakscaleShards(nodes int) int {
	s := nodes / 4
	if s < 2 {
		s = 2
	}
	return s
}

// weakscaleConfig is the cluster configuration of the throughput rows.
// BreadthFirst keeps cluster scheduling O(1) per task at 256 nodes and two
// CPU workers bound the goroutine count. The four comm threads only fix
// the order of dispatches the golden rows were recorded with: a dispatch
// costs no virtual time, so no thread count relieves a bottleneck.
// ManagerOpCost arms the service model for centralized and sharded rows
// alike — the only difference between them is the shard count.
func weakscaleConfig(nodes, shards int) ompss.Config {
	return ompss.Config{
		Cluster:       ompss.GPUCluster(nodes),
		Scheduler:     sched.BreadthFirst,
		SlaveToSlave:  true,
		CommThreads:   4,
		CPUWorkers:    2,
		ManagerShards: shards,
		ManagerOpCost: weakOpCost,
	}
}

// weakscaleSize is the per-node workload: chains per node and their depth.
func weakscaleSize(o Options) (chains, depth int) {
	if o.Quick {
		return 2, 10
	}
	return 8, 25
}

// weakscaleRun executes chainsPerNode chains per node of cfg's cluster, each
// of depth dependent SMP tasks, submitted layer by layer through TaskBatch,
// and returns the run's stats. Chain regions are never initialized
// host-side: the first producer establishes residence wherever it runs,
// exactly like GPU-initialized application data.
func weakscaleRun(cfg ompss.Config, chainsPerNode, depth int) (ompss.Stats, error) {
	nodes := len(cfg.Cluster.Nodes)
	rt := ompss.New(cfg)
	return rt.Run(func(ctx *ompss.Context) {
		nchains := nodes * chainsPerNode
		deps := make([]ompss.Region, nchains)
		for i := range deps {
			block := ctx.Alloc(weakChainBytes)
			deps[i] = ompss.Region{Addr: block.Addr, Size: weakDepBytes}
		}
		specs := make([]ompss.TaskSpec, nchains)
		for d := 0; d < depth; d++ {
			for i, r := range deps {
				specs[i] = ompss.TaskSpec{
					Work:    task.FixedWork{Label: "chain", CPUTime: weakTaskCost},
					Clauses: []ompss.Clause{ompss.Target(ompss.SMP), ompss.InOut(r)},
				}
			}
			ctx.TaskBatch(specs)
		}
		ctx.TaskWaitNoflush()
	})
}

// weakscaleVerify runs the validated cluster Matmul centralized and
// sharded and fails on checksum divergence — the correctness half of the
// weak-scaling claim (and of the CI smoke job).
func weakscaleVerify(o Options, nodes, shards int) (float64, string, error) {
	p := apps.MatmulParams{N: 512, BS: 128, Init: apps.InitGPU}
	mk := func(shards int) ompss.Config {
		cfg := clusterConfig("fig9", o, nodes)
		cfg.SlaveToSlave = true
		cfg.Validate = true
		cfg.ManagerShards = shards
		cfg.ManagerOpCost = weakOpCost
		return cfg
	}
	central, err := apps.MatmulOmpSs(mk(1), p)
	if err != nil {
		return 0, "", fmt.Errorf("weakscale verify n=%d centralized: %w", nodes, err)
	}
	sharded, err := apps.MatmulOmpSs(mk(shards), p)
	if err != nil {
		return 0, "", fmt.Errorf("weakscale verify n=%d sharded: %w", nodes, err)
	}
	if central.Check != sharded.Check {
		return 0, "", fmt.Errorf("weakscale verify n=%d: checksum diverged: centralized %s vs sharded(x%d) %s",
			nodes, central.Check, shards, sharded.Check)
	}
	return 1, "ok", nil
}

// weakscale is the centralized-vs-sharded manager scaling experiment (not
// a paper figure; see EXPERIMENTS.md "Weak-scaling the manager layer").
func weakscale(o Options) ([]Row, error) {
	// Derived row pairs (tasks/sec and dirops/sec come from one run) and
	// the verify gate must always run in full; GridPoint does not apply.
	chains, depth := weakscaleSize(o)
	nodesList := []int{8, 64, 256}
	if o.Quick {
		nodesList = []int{8, 64}
	}
	rows := []Row{}
	for _, pt := range []struct{ nodes, shards int }{{8, 4}, {32, 4}} {
		v, unit, err := weakscaleVerify(o, pt.nodes, pt.shards)
		if err != nil {
			return rows, err
		}
		rows = append(rows, Row{Experiment: "wscale",
			Config: fmt.Sprintf("verify n=%d shards 1 vs %d", pt.nodes, pt.shards),
			Value:  v, Unit: unit})
	}
	for _, nodes := range nodesList {
		tasks := float64(nodes * chains * depth)
		for _, mode := range []struct {
			label  string
			shards int
		}{
			{"centralized", 1},
			{fmt.Sprintf("sharded s=%d", weakscaleShards(nodes)), weakscaleShards(nodes)},
		} {
			st, err := weakscaleRun(weakscaleConfig(nodes, mode.shards), chains, depth)
			if err != nil {
				return rows, fmt.Errorf("weakscale n=%d %s: %w", nodes, mode.label, err)
			}
			rows = append(rows,
				Row{Experiment: "wscale", Config: fmt.Sprintf("n=%d %s", nodes, mode.label),
					Value: tasks / st.ElapsedSeconds, Unit: "tasks/s"},
				Row{Experiment: "wscale", Config: fmt.Sprintf("n=%d %s dirops", nodes, mode.label),
					Value: float64(st.ManagerOps) / st.ElapsedSeconds, Unit: "ops/s"})
		}
	}
	return rows, nil
}
