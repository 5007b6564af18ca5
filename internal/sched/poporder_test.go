package sched

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/task"
)

// popStep is one step of the pop-order script: a submit ('s') of a task
// with its release place and the scores, estimates and rank every policy
// reads from it, a pop ('p') or a drain ('d') at a place. A drained task is
// resubmitted at -1, as the fault-tolerant runtime does.
type popStep struct {
	op    byte
	name  string
	dev   task.Device
	place int
	score []uint64
	est   []Estimate
	rank  time.Duration
}

func submitStep(name string, dev task.Device, releasedBy int, score []uint64, est []Estimate, rank time.Duration) popStep {
	return popStep{op: 's', name: name, dev: dev, place: releasedBy, score: score, est: est, rank: rank}
}

// popScript runs on places {0: SMP, 1 and 2: CUDA}. Its ranks, scores and
// estimates tie on purpose: the order among equals is what it pins.
var popScript = []popStep{
	submitStep("a", task.SMP, -1, []uint64{10, 0, 0}, []Estimate{est(ms, 0), incompat, incompat}, 2*ms),
	submitStep("b", task.CUDA, 1, []uint64{0, 5, 5}, []Estimate{incompat, est(2*ms, 0), est(2*ms, 0)}, 2*ms),
	submitStep("c", task.CUDA, 1, []uint64{0, 0, 7}, []Estimate{incompat, est(ms, 0), est(3*ms, 0)}, 5*ms),
	submitStep("d", task.SMP, 0, []uint64{0, 0, 0}, []Estimate{est(ms, 0), incompat, incompat}, 2*ms),
	submitStep("e", task.CUDA, -1, []uint64{0, 9, 0}, []Estimate{incompat, est(ms, 0), est(ms, 0)}, ms),
	submitStep("f", task.SMP, 2, []uint64{3, 0, 0}, []Estimate{est(ms, 0), incompat, incompat}, 7*ms),
	submitStep("g", task.CUDA, 2, []uint64{0, 0, 4}, []Estimate{incompat, est(5*ms, 0), est(ms, 0)}, 5*ms),
	{op: 'p', place: 1},
	{op: 'p', place: 0},
	{op: 'p', place: 2},
	{op: 'd', place: 2},
	{op: 'p', place: 1},
	submitStep("h", task.CUDA, 1, []uint64{0, 0, 6}, []Estimate{incompat, est(9*ms, 0), est(ms, 0)}, 3*ms),
	submitStep("i", task.CUDA, 1, []uint64{0, 0, 6}, []Estimate{incompat, est(9*ms, 0), est(ms, 0)}, 3*ms),
	submitStep("j", task.CUDA, -1, []uint64{0, 0, 6}, []Estimate{incompat, est(9*ms, 0), est(ms, 0)}, 4*ms),
	{op: 'p', place: 1},
	{op: 'p', place: 2},
	{op: 'p', place: 0},
}

// runPopScript plays popScript on policy and returns what left, in order:
// a popped task's name ("-" for nil), a drain as d<place>[names], then the
// pops of every place in turn until none finds work, and the steal count.
func runPopScript(policy Policy) string {
	steps := map[task.ID]popStep{}
	o := withCost(Options{
		Score:   func(t *task.Task) []uint64 { return steps[t.ID].score },
		Steal:   true,
		CanRun:  deviceFilter,
		Accepts: deviceAccepts,
	}, func(t *task.Task) []Estimate { return steps[t.ID].est },
		func(t *task.Task) time.Duration { return steps[t.ID].rank })
	s := New(policy, 3, o)
	var out []string
	pop := func(place int) bool {
		t := s.Pop(place)
		if t == nil {
			out = append(out, "-")
			return false
		}
		out = append(out, t.Name)
		return true
	}
	for i, st := range popScript {
		switch st.op {
		case 's':
			t := &task.Task{ID: task.ID(i + 1), Name: st.name, Device: st.dev}
			steps[t.ID] = st
			s.Submit(t, st.place)
		case 'p':
			pop(st.place)
		case 'd':
			var names []string
			drained := s.Drain(st.place)
			for _, t := range drained {
				names = append(names, t.Name)
			}
			out = append(out, fmt.Sprintf("d%d%v", st.place, names))
			for _, t := range drained {
				s.Submit(t, -1)
			}
		}
	}
	out = append(out, "|")
	for idle := 0; idle < 3; {
		for p := 0; p < 3; p++ {
			if pop(p) {
				idle = 0
			} else {
				idle++
			}
		}
	}
	return fmt.Sprintf("%s steals=%d len=%d", strings.Join(out, " "), s.Steals(), s.Len())
}

// TestPopOrder pins, per policy, the exact sequence popScript pops: the
// tie orders of the FIFO, the successor hints, the place queues and their
// rank order, a drain and a steal.
func TestPopOrder(t *testing.T) {
	want := map[Policy]string{
		BreadthFirst: "b a c d2[] e g h d | f i j - - - steals=0 len=0",
		Dependencies: "c d g d2[] b i e a | f h j - - - steals=0 len=0",
		Affinity:     "e a c d2[g] b j g f | d i h - - - steals=2 len=0",
		HEFT:         "c f g d2[e] b e j a | d i h - - - steals=2 len=0",
	}
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		if got := runPopScript(policy); got != want[policy] {
			t.Errorf("%s:\n got %s\nwant %s", policy, got, want[policy])
		}
	}
}
