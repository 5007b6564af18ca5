//go:build !race

package bench

import (
	"runtime"
	"testing"

	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// Heap allocations per task over the quick stress grid's rows, the two
// stressRun builds itself (each task and its Deps) included. A task is its
// own graph node and keeps a chain's successor arc inline, scheduler
// entries and fragments come from slabs, and a one-holder set takes its
// array from the directory's slab, so what is left beyond those two is, on
// the overlapping row, a task's second successor and the holder lists of
// split fragments. It was 4.61 before those and 2.316 with a holder list
// per region; it is held to what was measured plus 5 %. The race detector
// allocates on its own, hence the build tag.
func TestStressAllocsPerTask(t *testing.T) {
	const measured = 2.118
	width, depth := stressSize(true)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tasks := 0
	for _, r := range stressRows {
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

// Live heap per task while the quick stress grid sits submitted and
// undrained: each task (its graph node included), its Deps, and the
// fragments and ready entries it shares — what a million-task graph holds
// at once. It was 283.7 bytes with a 152 B task and a 56 B node beside it,
// 208.6 with a 96 B task and a 48 B node, and is 171.6 with the node's
// state in a 112 B task (on the full grid 265.7, 190.7 and 153.7); it is
// held to what was measured plus 5 %. The race detector allocates on its
// own, hence the build tag.
func TestStressLiveBytesPerTask(t *testing.T) {
	const measured = 171.6
	width, depth := stressSize(true)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := sched.New(sched.Dependencies, stressPlaces, sched.Options{})
	g := depgraph.New(func(t *task.Task) { sc.Submit(t, -1) })
	var base task.ID
	for d := 0; d < depth; d++ {
		if _, err := g.SubmitBatch(stressLayer(width, d, 0, base)); err != nil {
			t.Fatal(err)
		}
		base += task.ID(width)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	runtime.KeepAlive(sc)
	live := float64(after.HeapAlloc-before.HeapAlloc) / float64(width*depth)
	if max := measured * 1.05; live > max {
		t.Errorf("%.1f live bytes per task, want <= %.1f", live, max)
	}
	t.Logf("%.1f live bytes per task", live)
}
