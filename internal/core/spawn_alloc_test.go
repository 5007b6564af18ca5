//go:build !race

package core

import (
	"runtime"
	"testing"
)

// Heap allocations per task at TestProcessesPerTask's point, centralized
// and sharded, over the whole run: set-up and the test's own task
// definitions (2 per task) included. What is left per remote task is the
// task, the dispatch process and its transfer's events, gasnet's handler
// and wire records and the boxed Args of a push: scheduler entries come
// from a slab, a chain's successor arc lives in its node, and Missing and
// Holders fill stack buffers. It was 23.98 and 24.41 before scheduling,
// staging and completion reports stopped allocating on the way, and 16.63
// and 16.76 before those three; it is held to what was measured plus 5 %.
// The race detector allocates on its own, hence the build tag.
func TestAllocsPerTask(t *testing.T) {
	for _, point := range []struct {
		shards   int
		measured float64
	}{{1, 11.65}, {2, 11.83}} {
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
