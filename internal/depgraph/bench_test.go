package depgraph

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// stridedTasks builds width independent writer tasks whose regions are
// visited in a strided (non-monotonic) address order — the pattern that
// forces mid-index fragment inserts, where a flat sorted slice degenerates
// to O(n) memmoves per submit.
func stridedTasks(width int, base task.ID) []*task.Task {
	step := 9973 % width
	if step == 0 {
		step = 1
	}
	ts := make([]*task.Task, 0, width)
	for k := 0; k < width; k++ {
		i := (k * step) % width
		ts = append(ts, &task.Task{
			ID:   base + task.ID(k+1),
			Name: "w",
			Deps: []task.Dep{{
				Region: memspace.Region{Addr: uint64(i) * 64, Size: 64},
				Access: task.Out,
			}},
		})
	}
	return ts
}

// BenchmarkSubmit measures one-at-a-time submission of a strided
// 100k-task layer — the hot path the sharded index accelerates.
func BenchmarkSubmit(b *testing.B) {
	const width = 100_000
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		g := New(func(*task.Task) {})
		for _, t := range stridedTasks(width, 0) {
			if err := g.Submit(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(width), "tasks/op")
}

// BenchmarkSubmitBatch submits the same layer as one batch; it should read
// what BenchmarkSubmit reads.
func BenchmarkSubmitBatch(b *testing.B) {
	const width = 100_000
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		g := New(func(*task.Task) {})
		if _, err := g.SubmitBatch(stridedTasks(width, 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(width), "tasks/op")
}

// BenchmarkSubmitChainAllocs: a linear chain (each task inout on one
// region, one successor per task) keeps its one arc inline in the task, so
// it pays no allocation per task beyond the task's own. Run with -benchmem;
// allocs/op is the gate.
func BenchmarkSubmitChainAllocs(b *testing.B) {
	r := memspace.Region{Addr: 0, Size: 64}
	b.ReportAllocs()
	b.ResetTimer()
	g := New(func(*task.Task) {})
	for n := 0; n < b.N; n++ {
		t := &task.Task{ID: task.ID(n + 1), Name: "c",
			Deps: []task.Dep{{Region: r, Access: task.InOut}}}
		if err := g.Submit(t); err != nil {
			b.Fatal(err)
		}
	}
}
