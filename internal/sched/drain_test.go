package sched

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/task"
)

func TestBreadthFirstDrainIsNil(t *testing.T) {
	s := New(BreadthFirst, 2, Options{})
	s.Submit(mk("a"), -1)
	if got := s.Drain(0); got != nil {
		t.Fatalf("bf Drain = %v, want nil (shared FIFO survives the place)", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d after Drain", s.Len())
	}
}

func TestDependenciesDrainForgetsHintsKeepsTasks(t *testing.T) {
	s := New(Dependencies, 2, Options{})
	a, b := mk("a"), mk("b")
	s.Submit(a, 0)
	s.Submit(b, 0)
	if got := s.Drain(0); got != nil {
		t.Fatalf("dep Drain = %v, want nil", got)
	}
	// The tasks stay poppable from the shared FIFO by a surviving place.
	if got := s.Pop(1); got != a {
		t.Fatalf("pop = %v, want a", got)
	}
	if got := s.Pop(1); got != b {
		t.Fatalf("pop = %v, want b", got)
	}
}

func TestAffinityDrainTakesLocalQueue(t *testing.T) {
	// Score everything to place 1: its local queue strands if the place dies.
	score := func(tk *task.Task) []uint64 { return []uint64{0, 10} }
	s := New(Affinity, 2, Options{Score: score})
	a, b, c := mk("a"), mk("b"), mk("c")
	s.Submit(a, -1)
	s.Submit(b, -1)
	s.Submit(c, -1)
	// One task already popped must not reappear in the drain.
	if got := s.Pop(1); got != a {
		t.Fatalf("pop = %v, want a", got)
	}
	drained := s.Drain(1)
	if len(drained) != 2 || drained[0] != b || drained[1] != c {
		t.Fatalf("drained = %v, want [b c] in queue order", drained)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after drain", s.Len())
	}
	if got := s.Pop(1); got != nil {
		t.Fatalf("pop after drain = %v", got)
	}
	// Resubmitting a drained task to the global queue makes it poppable by
	// the survivor — the fault-tolerant runtime's requeue path.
	s.Submit(b, -1)
	if got := s.Pop(1); got != b {
		t.Fatalf("requeued pop = %v, want b", got)
	}
	// Out-of-range places drain nothing.
	if got := s.Drain(-1); got != nil {
		t.Fatalf("Drain(-1) = %v", got)
	}
	if got := s.Drain(7); got != nil {
		t.Fatalf("Drain(7) = %v", got)
	}
}
