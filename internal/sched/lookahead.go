package sched

import (
	"slices"

	"github.com/bsc-repro/ompss/internal/task"
)

// lookaheadSched wraps a Scheduler with a bounded per-place window of
// ready-ahead tasks: when a place's window is empty, one refill claims up
// to window tasks from the wrapped scheduler in a single batch, and
// subsequent pops serve the window in FIFO order without touching the
// shared pool. Dispatch therefore keeps a device fed from its own window
// while the graph (and the shared queues) are still being built, at the
// cost of early binding: a claimed task can no longer migrate to another
// place, which can change schedules. The runtime does not use it: the
// stress experiment's lookahead row is its only caller.
type lookaheadSched struct {
	inner  Scheduler
	window int
	// buf[place] is the place's window, newest claim first: a pop takes
	// from the end, so the window's array serves every refill.
	buf      [][]*task.Task
	buffered int
}

// Lookahead wraps inner with a per-place ready-ahead window of the given
// size. window <= 1 returns inner unchanged (a one-deep window is just a
// pop).
func Lookahead(inner Scheduler, window int) Scheduler {
	if window <= 1 {
		return inner
	}
	return &lookaheadSched{inner: inner, window: window}
}

// Submit forwards to the wrapped scheduler; submissions never bypass the
// policy's own placement.
func (s *lookaheadSched) Submit(t *task.Task, releasedBy int) {
	s.inner.Submit(t, releasedBy)
}

// Pop serves the place's window, refilling it from the wrapped scheduler
// when empty.
func (s *lookaheadSched) Pop(place int) *task.Task {
	for len(s.buf) <= place {
		s.buf = append(s.buf, nil)
	}
	q := s.buf[place]
	if len(q) == 0 {
		for len(q) < s.window {
			t := s.inner.Pop(place)
			if t == nil {
				break
			}
			q = append(q, t)
		}
		if len(q) == 0 {
			return nil
		}
		slices.Reverse(q)
		s.buffered += len(q)
	}
	t := q[len(q)-1]
	q[len(q)-1] = nil
	s.buf[place] = q[:len(q)-1]
	s.buffered--
	return t
}

// Drain returns the place's windowed tasks, in window order, plus
// whatever the wrapped scheduler had queued for it.
func (s *lookaheadSched) Drain(place int) []*task.Task {
	var out []*task.Task
	if place >= 0 && place < len(s.buf) {
		out = slices.Clone(s.buf[place])
		slices.Reverse(out)
		s.buf[place] = nil
	}
	s.buffered -= len(out)
	return append(out, s.inner.Drain(place)...)
}

// Len counts windowed tasks plus the wrapped scheduler's queue.
func (s *lookaheadSched) Len() int { return s.buffered + s.inner.Len() }

// Steals is the wrapped scheduler's: a window only claims what its own
// place popped.
func (s *lookaheadSched) Steals() int { return s.inner.Steals() }
