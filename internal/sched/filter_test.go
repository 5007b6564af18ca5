package sched

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/task"
)

// deviceFilter: place 0 runs SMP only, other places run CUDA only.
func deviceFilter(place int, t *task.Task) bool {
	if place == 0 {
		return t.Device == task.SMP
	}
	return t.Device == task.CUDA
}

func mkDev(name string, d task.Device) *task.Task {
	nextID++
	return &task.Task{ID: nextID, Name: name, Device: d}
}

func TestCompatibilityFilter(t *testing.T) {
	for _, policy := range []Policy{BreadthFirst, Dependencies} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			s := New(policy, 2, Options{Steal: true, CanRun: deviceFilter})
			cu := mkDev("cu", task.CUDA)
			sm := mkDev("sm", task.SMP)
			s.Submit(cu, -1)
			s.Submit(sm, -1)
			// Place 0 (CPU) must skip the older CUDA task and take the SMP one.
			if got := s.Pop(0); got != sm {
				t.Fatalf("cpu pop = %v, want sm", got)
			}
			if got := s.Pop(0); got != nil {
				t.Fatalf("cpu pop of CUDA task = %v", got)
			}
			if got := s.Pop(1); got != cu {
				t.Fatalf("gpu pop = %v, want cu", got)
			}
		})
	}
}

func TestAffinityFilterAppliesToStealAndGlobal(t *testing.T) {
	scores := scoreMap{}
	s := New(Affinity, 2, Options{Score: scores.fn, Steal: true, CanRun: deviceFilter})
	cu := mkDev("cu", task.CUDA)
	scores[cu.ID] = []uint64{0, 0} // goes global
	s.Submit(cu, -1)
	if got := s.Pop(0); got != nil {
		t.Fatalf("cpu place popped CUDA task %v from global", got)
	}
	if got := s.Pop(1); got != cu {
		t.Fatalf("gpu place pop = %v", got)
	}
	// Steal path: CUDA task queued locally at place 1 must not be stolen by
	// the CPU place.
	cu2 := mkDev("cu2", task.CUDA)
	scores[cu2.ID] = []uint64{0, 10}
	s.Submit(cu2, -1)
	if got := s.Pop(0); got != nil {
		t.Fatalf("cpu place stole CUDA task %v", got)
	}
	if got := s.Pop(1); got != cu2 {
		t.Fatalf("gpu place pop = %v", got)
	}
}

func TestDependenciesSuccessorRespectsFilter(t *testing.T) {
	s := New(Dependencies, 2, Options{Steal: true, CanRun: deviceFilter})
	cu := mkDev("cu", task.CUDA)
	s.Submit(cu, 0) // released at the CPU place, but CPU can't run it
	if got := s.Pop(0); got != nil {
		t.Fatalf("cpu pop = %v", got)
	}
	if got := s.Pop(1); got != cu {
		t.Fatalf("gpu pop = %v", got)
	}
}
