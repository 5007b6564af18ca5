package sched

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/task"
)

// BenchmarkPopOtherDevice measures the pop of a GPU place that finds
// nothing while 10^4 SMP tasks are queued: the idle GPU manager's check at
// every signalWork of a CPU-bound phase.
func BenchmarkPopOtherDevice(b *testing.B) {
	for _, policy := range []Policy{BreadthFirst, Dependencies} {
		b.Run(string(policy), func(b *testing.B) {
			calls := 0
			s := New(policy, 2, withDevices(&calls))
			for i := 0; i < 10000; i++ {
				s.Submit(&task.Task{ID: task.ID(i + 1), Device: task.SMP}, -1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Pop(1) != nil {
					b.Fatal("a GPU place popped an SMP task")
				}
			}
		})
	}
}

// steadySubmitPop returns one ready task's whole trip through policy with
// 32 tasks queued: a Submit (alternately at submit time and released by
// place 0) and a Pop at place 0. The policy inputs return fixed slices, so
// whatever the trip allocates is the scheduler's own.
func steadySubmitPop(policy Policy) func() {
	scores := []uint64{0, 0}
	estimates := []Estimate{est(ms, 0), incompat}
	s := New(policy, 2, Options{
		Score:  func(*task.Task) []uint64 { return scores },
		Cost:   func(*task.Task) []Estimate { return estimates },
		CanRun: deviceFilter,
	})
	ts := make([]*task.Task, 64)
	for i := range ts {
		ts[i] = &task.Task{ID: task.ID(i + 1), Device: task.SMP}
	}
	for _, t := range ts[:32] {
		s.Submit(t, -1)
	}
	i := 0
	trip := func() {
		s.Submit(ts[(i+32)%len(ts)], i%2-1)
		if s.Pop(0) == nil {
			panic("sched: steady-state pop found nothing")
		}
		i++
	}
	for range ts { // the queues reach their steady size
		trip()
	}
	return trip
}

// A ready task allocates nothing in the queues: entries come from a slab
// and each queue reuses its array.
func TestSubmitPopAllocatesNothing(t *testing.T) {
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		trip := steadySubmitPop(policy)
		if allocs := testing.AllocsPerRun(10000, trip); allocs != 0 {
			t.Errorf("%s: %.2f allocations per Submit+Pop, want 0", policy, allocs)
		}
	}
}

// BenchmarkSchedSubmitPop measures that trip per policy (0 allocs/op).
func BenchmarkSchedSubmitPop(b *testing.B) {
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		b.Run(string(policy), func(b *testing.B) {
			trip := steadySubmitPop(policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trip()
			}
		})
	}
}
