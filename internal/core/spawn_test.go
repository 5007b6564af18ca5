package core

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
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
//
// The same point under a quiet fault plan (acks and retries, nothing
// injected) pops more events and resumes its processes a different number
// of times, since an ack round-trip is in every reliable send's chain, but
// spawns exactly what the unarmed run spawns: a plan that can drop, slow,
// stall or crash nothing starts no heartbeat loop (104,342 and 108,167
// events, 30 and 31 spawns while it did). Its counts are held exactly too.
func TestProcessesPerTask(t *testing.T) {
	quiet := &faults.Plan{Seed: 1}
	for _, point := range []struct {
		shards                  int
		plan                    *faults.Plan
		spawns, resumes, events int
	}{
		{1, nil, 29, 9564, 53290}, {2, nil, 29, 9621, 57324},
		{1, quiet, 29, 8441, 94586}, {2, quiet, 29, 8409, 100096},
	} {
		rt := runWeakscalePoint(t, point.shards, point.plan)
		shards, tasks, armed := point.shards, weakscaleTasks, point.plan != nil
		if popped := rt.e.Popped(); popped != point.events {
			t.Errorf("shards=%d armed=%v: %d events popped (%.2f per task), want exactly %d",
				shards, armed, popped, float64(popped)/float64(tasks), point.events)
		}
		if spawned, max := rt.e.Spawned(), point.spawns*105/100; spawned > max || (armed && spawned != point.spawns) {
			t.Errorf("shards=%d armed=%v: %d processes for %d tasks, want <= %d (exactly %d armed)",
				shards, armed, spawned, tasks, max, point.spawns)
		}
		if resumed := rt.e.Resumed(); resumed != point.resumes {
			t.Errorf("shards=%d armed=%v: %d process resumes for %d tasks (%.2f per task), want exactly %d",
				shards, armed, resumed, tasks, float64(resumed)/float64(tasks), point.resumes)
		}
		t.Logf("shards=%d armed=%v: per task %.3f spawns, %.2f resumes, %.2f events", shards, armed,
			float64(rt.e.Spawned())/float64(tasks), float64(rt.e.Resumed())/float64(tasks), float64(rt.e.Popped())/float64(tasks))
	}
}

// The weakscale point's shape: nodes × chains chains of depth tasks.
const (
	weakscaleNodes, weakscaleChains, weakscaleDepth = 8, 8, 25
	weakscaleTasks                                  = weakscaleNodes * weakscaleChains * weakscaleDepth
)

// runWeakscalePoint builds and runs the 8-node weakscale point with the
// given manager shard count and fault plan (nil: unarmed) and returns the
// finished runtime.
func runWeakscalePoint(t testing.TB, shards int, plan *faults.Plan) *Runtime {
	t.Helper()
	rt := newWeakscalePoint(shards, plan)
	runWeakscale(t, rt)
	return rt
}

// newWeakscalePoint builds runWeakscalePoint's runtime.
func newWeakscalePoint(shards int, plan *faults.Plan) *Runtime {
	return New(Config{
		Cluster:       hw.GPUCluster(weakscaleNodes),
		Scheduler:     sched.BreadthFirst,
		SlaveToSlave:  true,
		CommThreads:   4,
		CPUWorkers:    2,
		ManagerShards: shards,
		ManagerOpCost: 2 * time.Microsecond,
		Faults:        plan,
	})
}

// runWeakscale runs the weakscale point's program on rt.
func runWeakscale(t testing.TB, rt *Runtime) {
	t.Helper()
	const nodes, chains, depth = weakscaleNodes, weakscaleChains, weakscaleDepth
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
}

// BenchmarkRemoteTask runs TestProcessesPerTask's centralized point once per
// op, unarmed and under a quiet fault plan, and reports, per task, what the
// engine did for it — spawns, resumes and events popped — beside the op's
// time and allocations.
func BenchmarkRemoteTask(b *testing.B) {
	for _, bm := range []struct {
		name string
		plan *faults.Plan
	}{{"unarmed", nil}, {"armed", &faults.Plan{Seed: 1}}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			var rt *Runtime
			for i := 0; i < b.N; i++ {
				rt = runWeakscalePoint(b, 1, bm.plan)
			}
			per := func(n int) float64 { return float64(n) / weakscaleTasks }
			b.ReportMetric(per(rt.e.Spawned()), "spawns/task")
			b.ReportMetric(per(rt.e.Resumed()), "resumes/task")
			b.ReportMetric(per(rt.e.Popped()), "events/task")
		})
	}
}
