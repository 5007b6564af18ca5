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
// and sharded: nothing is a process per task — not a kernel, DMA, message,
// delivery, ack, taskDone or dirop, and since dispatch, staging and the
// slave's push became event chains, not a dispatch or a push either. The
// counts are deterministic. Spawns are the run's fixed processes, 29 (1.43
// and 1.52 per task while a remote task cost a dispatch process and a push
// handler, 4.4 and 5.0 before that). Resumes — the times the engine switches
// to a process, the cost left in sim — are the loops': 6.0 per task (11.1
// and 11.7 with the dispatch and push processes, 18.6 and 19.1 while every
// signalWork switched to every idle loop, 27.4 and 28.9 while a send woke
// its caller two to four times and every delivery woke a dispatcher). Spawns
// are held to what was measured plus 5 %. Resumes and the number of events
// the engine pops are held exactly: an operation may change form — a
// process become an event chain, or a send's process form an Await on its
// chain — only by taking the slots of the form it replaces, so a change to
// either count is a change to the simulation's event order or to who runs
// its steps.
func TestProcessesPerTask(t *testing.T) {
	for _, point := range []struct{ shards, spawns, resumes, events int }{{1, 29, 9564, 53290}, {2, 29, 9621, 57324}} {
		rt := runWeakscalePoint(t, point.shards)
		shards, tasks := point.shards, weakscaleTasks
		if popped := rt.e.Popped(); popped != point.events {
			t.Errorf("shards=%d: %d events popped (%.2f per task), want exactly %d",
				shards, popped, float64(popped)/float64(tasks), point.events)
		}
		if spawned, max := rt.e.Spawned(), point.spawns*105/100; spawned > max {
			t.Errorf("shards=%d: %d processes for %d tasks, want <= %d", shards, spawned, tasks, max)
		}
		if resumed := rt.e.Resumed(); resumed != point.resumes {
			t.Errorf("shards=%d: %d process resumes for %d tasks (%.2f per task), want exactly %d",
				shards, resumed, tasks, float64(resumed)/float64(tasks), point.resumes)
		}
		t.Logf("shards=%d: per task %.3f spawns, %.2f resumes, %.2f events", shards,
			float64(rt.e.Spawned())/float64(tasks), float64(rt.e.Resumed())/float64(tasks), float64(rt.e.Popped())/float64(tasks))
	}
}

// The weakscale point's shape: nodes × chains chains of depth tasks.
const (
	weakscaleNodes, weakscaleChains, weakscaleDepth = 8, 8, 25
	weakscaleTasks                                  = weakscaleNodes * weakscaleChains * weakscaleDepth
)

// runWeakscalePoint builds and runs the 8-node weakscale point with the
// given manager shard count and returns the finished runtime.
func runWeakscalePoint(t testing.TB, shards int) *Runtime {
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

// BenchmarkRemoteTask runs TestProcessesPerTask's centralized point once per
// op and reports, per task, what the engine did for it — spawns, resumes
// and events popped — beside the op's time and allocations.
func BenchmarkRemoteTask(b *testing.B) {
	b.ReportAllocs()
	var rt *Runtime
	for i := 0; i < b.N; i++ {
		rt = runWeakscalePoint(b, 1)
	}
	per := func(n int) float64 { return float64(n) / weakscaleTasks }
	b.ReportMetric(per(rt.e.Spawned()), "spawns/task")
	b.ReportMetric(per(rt.e.Resumed()), "resumes/task")
	b.ReportMetric(per(rt.e.Popped()), "events/task")
}
