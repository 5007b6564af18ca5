package core

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// The 8-node point of `ompss-bench -experiment weakscale` (8 chains per
// node, 25 dependent 20 µs SMP tasks each, 256-byte regions), centralized
// and sharded: a remote task costs a dispatch process and the blocking end
// of its data transfer, nothing per kernel, DMA, message, dispatcher
// delivery, ack, taskDone or dirop. The count is deterministic — 4.4 and 5.0
// per task before those became events, 1.43 and 1.52 now — so a goroutine
// per operation creeping back fails here rather than in a profile. So is the
// number of times the engine switches to a process, 11.1 and 11.7 per task
// (18.6 and 19.1 while every signalWork switched to every idle loop, 27.4
// and 28.9 while a send woke its caller two to four times and every
// delivery woke a dispatcher): that count is the cost left in sim, and it is
// held to what was measured plus 5 %.
func TestProcessesPerTask(t *testing.T) {
	for _, point := range []struct{ shards, measuredResumes int }{{1, 17687}, {2, 18680}} {
		shards, maxResumes := point.shards, point.measuredResumes*105/100
		rt := runWeakscalePoint(t, shards)
		tasks := weakscaleTasks
		if spawned := rt.e.Spawned(); spawned > tasks*16/10 {
			t.Errorf("shards=%d: %d processes for %d tasks (%.2f per task), want <= 1.6",
				shards, spawned, tasks, float64(spawned)/float64(tasks))
		} else {
			t.Logf("shards=%d: %.2f processes per task", shards, float64(spawned)/float64(tasks))
		}
		if resumed := rt.e.Resumed(); resumed > maxResumes {
			t.Errorf("shards=%d: %d process resumes for %d tasks (%.1f per task), want <= %d",
				shards, resumed, tasks, float64(resumed)/float64(tasks), maxResumes)
		} else {
			t.Logf("shards=%d: %d process resumes, %.1f per task", shards, resumed, float64(resumed)/float64(tasks))
		}
	}
}

// The weakscale point's shape: nodes × chains chains of depth tasks.
const (
	weakscaleNodes, weakscaleChains, weakscaleDepth = 8, 8, 25
	weakscaleTasks                                  = weakscaleNodes * weakscaleChains * weakscaleDepth
)

// runWeakscalePoint builds and runs the 8-node weakscale point with the
// given manager shard count and returns the finished runtime.
func runWeakscalePoint(t *testing.T, shards int) *Runtime {
	t.Helper()
	const nodes, chains, depth = weakscaleNodes, weakscaleChains, weakscaleDepth
	rt := New(Config{
		Cluster:       hw.GPUCluster(nodes),
		Scheduler:     sched.BreadthFirst,
		SlaveToSlave:  true,
		CommThreads:   4,
		CPUWorkers:    2,
		ManagerShards: shards,
		ManagerOpCost: 2 * time.Microsecond,
	})
	_, err := rt.Run(func(mc *MainCtx) {
		deps := make([]memspace.Region, nodes*chains)
		for i := range deps {
			deps[i] = memspace.Region{Addr: mc.Alloc(1 << 18).Addr, Size: 256}
		}
		defs := make([]TaskDef, len(deps))
		for d := 0; d < depth; d++ {
			for i, r := range deps {
				defs[i] = TaskDef{
					Name: "chain", Device: task.SMP, Deps: []task.Dep{inoutDep(r)},
					Work: task.FixedWork{Label: "chain", CPUTime: 20 * time.Microsecond},
				}
			}
			mc.SubmitBatch(defs)
		}
		mc.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}
