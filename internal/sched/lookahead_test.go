package sched

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/task"
)

func laTask(id int, dev task.Device) *task.Task {
	return &task.Task{ID: task.ID(id), Name: "t", Device: dev}
}

func TestLookaheadWindowServesFIFO(t *testing.T) {
	inner := New(BreadthFirst, 2, Options{})
	s := Lookahead(inner, 3, LookaheadHooks{})
	for i := 1; i <= 5; i++ {
		s.Submit(laTask(i, task.SMP), -1)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	// First pop refills a window of 3 and serves in FIFO order.
	for want := 1; want <= 5; want++ {
		got := s.Pop(0)
		if got == nil || int(got.ID) != want {
			t.Fatalf("Pop #%d = %v, want id %d", want, got, want)
		}
	}
	if s.Pop(0) != nil || s.Len() != 0 {
		t.Fatalf("scheduler not empty after draining")
	}
}

func TestLookaheadRespectsCompatibility(t *testing.T) {
	canRun := func(place int, tk *task.Task) bool {
		if place == 0 {
			return tk.Device == task.SMP
		}
		return tk.Device == task.CUDA
	}
	inner := New(BreadthFirst, 2, Options{CanRun: canRun})
	s := Lookahead(inner, 4, LookaheadHooks{})
	s.Submit(laTask(1, task.CUDA), -1)
	s.Submit(laTask(2, task.SMP), -1)
	s.Submit(laTask(3, task.CUDA), -1)
	// Place 1 (GPU) claims only CUDA tasks into its window; the SMP task
	// must remain available to place 0.
	if got := s.Pop(1); got == nil || got.ID != 1 {
		t.Fatalf("Pop(1) = %v, want id 1", got)
	}
	if got := s.Pop(0); got == nil || got.ID != 2 {
		t.Fatalf("Pop(0) = %v, want id 2", got)
	}
	if got := s.Pop(1); got == nil || got.ID != 3 {
		t.Fatalf("Pop(1) = %v, want id 3", got)
	}
}

func TestLookaheadDrainReturnsWindow(t *testing.T) {
	inner := New(BreadthFirst, 2, Options{})
	s := Lookahead(inner, 8, LookaheadHooks{})
	for i := 1; i <= 4; i++ {
		s.Submit(laTask(i, task.SMP), -1)
	}
	// Pop once: window claims all four, serves one, buffers three.
	if got := s.Pop(0); got == nil || got.ID != 1 {
		t.Fatalf("Pop = %v, want id 1", got)
	}
	if n := s.(*LookaheadSched).Buffered(); n != 3 {
		t.Fatalf("Buffered = %d, want 3", n)
	}
	drained := s.Drain(0)
	if len(drained) != 3 || drained[0].ID != 2 || drained[2].ID != 4 {
		t.Fatalf("Drain = %v, want ids 2..4", drained)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
}

func TestLookaheadWindowOneIsPassthrough(t *testing.T) {
	inner := New(BreadthFirst, 1, Options{})
	if s := Lookahead(inner, 1, LookaheadHooks{}); s != inner {
		t.Fatalf("window 1 should return the wrapped scheduler unchanged")
	}
	if s := Lookahead(inner, 0, LookaheadHooks{}); s != inner {
		t.Fatalf("window 0 should return the wrapped scheduler unchanged")
	}
}
