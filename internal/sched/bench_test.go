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
