//go:build !race

package core

import (
	"runtime"
	"testing"
)

// Heap allocations per task at TestProcessesPerTask's point, centralized
// and sharded, over the whole run: set-up and the test's own task
// definitions (2 per task) included. What is left per remote task is the
// task and its scheduler entries, the dispatch process and its transfer's
// ack event, the directory's Missing and Holders results, a successor arc
// and the boxed Args of a push. It was 23.98 and 24.41 before scheduling,
// staging and completion reports stopped allocating on the way; it is held
// to what was measured plus 5 %. The race detector allocates on its own,
// hence the build tag.
func TestAllocsPerTask(t *testing.T) {
	for _, point := range []struct {
		shards   int
		measured float64
	}{{1, 16.63}, {2, 16.76}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runWeakscalePoint(t, point.shards)
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / weakscaleTasks
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / weakscaleTasks
		if max := point.measured * 1.05; allocs > max {
			t.Errorf("shards=%d: %.2f allocations per task, want <= %.2f", point.shards, allocs, max)
		}
		t.Logf("shards=%d: %.2f allocations, %.0f bytes per task", point.shards, allocs, bytes)
	}
}
