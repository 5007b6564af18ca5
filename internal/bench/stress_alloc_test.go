//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// Heap allocations per task over the quick stress grid's rows, the two
// stressRun builds itself (each task and its Deps) included. Graph nodes,
// scheduler entries and fragments come from slabs and a chain's successor
// arc lives in its node, and a one-holder set takes its array from the
// directory's slab, so what is left beyond those two is, on the
// overlapping row, the second successor of a node and the holder lists of
// split fragments. It was 4.61 before those and 2.316 with a holder list
// per region; it is held to what was measured plus 5 %. The race detector
// allocates on its own, hence the build tag.
func TestStressAllocsPerTask(t *testing.T) {
	const measured = 2.118
	width, depth := stressSize(Options{Quick: true})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tasks := 0
	for _, r := range stressRows(0) {
		if _, err := stressRun(width, depth, r.overlap, r.batch, r.lookahead); err != nil {
			t.Fatal(err)
		}
		tasks += width * depth
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(tasks)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks)
	if max := measured * 1.05; allocs > max {
		t.Errorf("%.3f allocations per task, want <= %.3f", allocs, max)
	}
	t.Logf("%.3f allocations, %.0f bytes per task", allocs, bytes)
}
