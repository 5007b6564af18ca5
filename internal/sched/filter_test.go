package sched

import (
	"testing"
	"unsafe"

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

// deviceAccepts is deviceFilter's static half.
func deviceAccepts(place int, d task.Device) bool { return (place == 0) == (d == task.SMP) }

// withDevices returns the options of a two-place image (place 0 runs SMP,
// place 1 CUDA) whose CanRun counts its calls: scores that send every task
// to the global queue, and estimates that bind it to its device's place.
func withDevices(calls *int) Options {
	return Options{
		Score: func(*task.Task) []uint64 { return []uint64{0, 0} },
		Cost: func(t *task.Task) []Estimate {
			if t.Device == task.SMP {
				return []Estimate{est(ms, 0), incompat}
			}
			return []Estimate{incompat, est(ms, 0)}
		},
		CanRun: func(place int, t *task.Task) bool {
			*calls++
			return deviceFilter(place, t)
		},
		Accepts: deviceAccepts,
	}
}

// With Accepts, a GPU place's pop visits the CUDA queue only: ten thousand
// queued SMP tasks cost it nothing, and it still finds the one CUDA task
// behind them with one compatibility check, as the CPU place finds the
// oldest SMP task.
func TestPopSkipsOtherDevices(t *testing.T) {
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		t.Run(string(policy), func(t *testing.T) {
			calls := 0
			s := New(policy, 2, withDevices(&calls))
			first := mkDev("sm", task.SMP)
			s.Submit(first, -1)
			for i := 1; i < 10000; i++ {
				s.Submit(mkDev("sm", task.SMP), -1)
			}
			calls = 0
			if got := s.Pop(1); got != nil || calls > 1 {
				t.Fatalf("gpu pop over 10^4 SMP tasks = %v with %d CanRun calls, want nil with <= 1", got, calls)
			}
			cu := mkDev("cu", task.CUDA)
			s.Submit(cu, -1)
			calls = 0
			if got := s.Pop(1); got != cu || calls > 1 {
				t.Fatalf("gpu pop = %v with %d CanRun calls, want cu with <= 1", got, calls)
			}
			if got := s.Pop(0); got != first {
				t.Fatalf("cpu pop = %v, want the oldest SMP task", got)
			}
		})
	}
}

// Split by device, a fifo still hands a place that accepts several devices
// the oldest task its filter passes.
func TestFIFOByDeviceKeepsSubmissionOrder(t *testing.T) {
	// A nil Accepts visits every device, like one that accepts them all.
	for _, accepts := range []AcceptsFn{nil, func(int, task.Device) bool { return true }} {
		s := New(BreadthFirst, 1, Options{
			CanRun:  func(_ int, t *task.Task) bool { return t.Name != "held" },
			Accepts: accepts,
		})
		var want []*task.Task
		for i, d := range []task.Device{task.CUDA, task.SMP, task.SMP, task.CUDA, task.SMP, task.CUDA} {
			name := "t"
			if i == 1 {
				name = "held"
			}
			tk := mkDev(name, d)
			s.Submit(tk, -1)
			if name != "held" {
				want = append(want, tk)
			}
		}
		for i, w := range want {
			if got := s.Pop(0); got != w {
				t.Fatalf("nil Accepts %v: pop %d = %v, want %v", accepts == nil, i, got, w)
			}
		}
		if got := s.Pop(0); got != nil || s.Len() != 1 {
			t.Fatalf("nil Accepts %v: after the passable tasks: pop = %v, len = %d; want nil, 1", accepts == nil, got, s.Len())
		}
	}
}

// An entry carries its fifo number and marks itself taken by clearing its
// task: 32 bytes, so a slab of them stays small.
func TestEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 32 {
		t.Fatalf("entry is %d bytes, want <= 32", size)
	}
}
