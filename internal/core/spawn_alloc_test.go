//go:build !race

package core

import (
	"runtime"
	"testing"

	"github.com/bsc-repro/ompss/internal/faults"
)

// Heap allocations per task at TestProcessesPerTask's point, centralized
// and sharded, over the whole run: set-up and the test's own task
// definitions (2 per task) included. A remote task's dispatch, staging,
// transfer and push are chains on pooled records, its AM arguments travel
// by value and a batch's task descriptors are one allocation, so what is
// left is set-up and the records the pools and queues grow to. It was 23.98
// and 24.41 before scheduling, staging and completion reports stopped
// allocating on the way, 16.63 and 16.76 before those three, 11.65 and
// 11.83 with a process, an ack event and boxed arguments per remote task,
// and 4.77 and 4.82 while a labelled registry of instruments was built for
// every run; it is held to the highest of 20 readings plus 5 %. A reading
// moves by about 0.02 from run to run, and the bounds leave room for that
// on purpose: a heap profile at -memprofilerate=1 puts every allocation
// that differs between runs on set-up and teardown paths with fixed inputs
// — fmt.Sprintf through its sync.Pool, a coroutine's iter.Pull — one or two
// objects each, which is the Go runtime's map growth and pool refills after
// a GC, not the simulation's per-task work. The race detector allocates on
// its own, hence the build tag.
//
// Under a quiet fault plan every remote message is reliable: a send, its
// retry loop and its ack are chains on pooled records too, and the
// receiver's dedup state is a watermark per sender. It was 54.9 and 56.6
// while each reliable message allocated its closures, its ack event and
// its record, and the receiver kept every (sender, seq) it had seen.
func TestAllocsPerTask(t *testing.T) {
	for _, point := range []struct {
		shards   int
		plan     *faults.Plan
		measured float64
	}{{1, nil, 3.88}, {2, nil, 3.90}, {1, &faults.Plan{Seed: 1}, 4.52}, {2, &faults.Plan{Seed: 1}, 4.44}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runWeakscalePoint(t, point.shards, point.plan)
		runtime.ReadMemStats(&after)
		armed := point.plan != nil
		allocs := float64(after.Mallocs-before.Mallocs) / weakscaleTasks
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / weakscaleTasks
		if max := point.measured * 1.05; allocs > max {
			t.Errorf("shards=%d armed=%v: %.2f allocations per task, want <= %.2f", point.shards, armed, allocs, max)
		}
		t.Logf("shards=%d armed=%v: %.2f allocations, %.0f bytes per task", point.shards, armed, allocs, bytes)
	}
}
