package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/bsc-repro/ompss/internal/task"
)

// propPlaces is the image the property runs on: place 0 runs SMP tasks
// (deviceFilter), places 1 and 2 run CUDA tasks.
const propPlaces = 3

// propTask is what the property knows of a task: placed ones score (and
// estimate) toward one place of their device, so affinity and heft queue
// them locally; the rest go to the shared FIFO, as do all of bf's and the
// submit-time (releasedBy -1) ones of dependencies.
type propTask struct {
	placed bool
	place  int
	rank   time.Duration
}

// propOptions builds the options of every policy over the tasks' fixed
// scores, estimates and ranks. Accepts is nil or the per-device split.
func propOptions(tasks map[task.ID]*propTask, perDevice bool) Options {
	o := Options{
		Score: func(t *task.Task) []uint64 {
			s := make([]uint64, propPlaces)
			if p := tasks[t.ID]; p.placed {
				s[p.place] = 10
			}
			return s
		},
		Cost: func(t *task.Task) []Estimate {
			e := make([]Estimate, propPlaces)
			for i := range e {
				e[i] = incompat
				if p := tasks[t.ID]; p.placed && deviceFilter(i, t) {
					e[i] = est(ms, time.Duration(i)*ms)
				}
			}
			return e
		},
		Rank:   func(t *task.Task) time.Duration { return tasks[t.ID].rank },
		Steal:  true,
		CanRun: deviceFilter,
	}
	if perDevice {
		o.Accepts = deviceAccepts
	}
	return o
}

// fifoRouted reports whether policy keeps t in the shared FIFO only, where
// tasks of one device leave in submission order.
func fifoRouted(policy Policy, p *propTask, releasedBy int) bool {
	switch policy {
	case BreadthFirst:
		return true
	case Dependencies:
		return releasedBy < 0
	default:
		return !p.placed
	}
}

// queuesOf returns every queue of s, to inspect its entries.
func queuesOf(s Scheduler) []*queue {
	p := s.(*pool)
	var qs []*queue
	for _, qq := range [][]queue{p.fifo.byDev, p.hints, p.local} {
		for i := range qq {
			qs = append(qs, &qq[i])
		}
	}
	return qs
}

// checkEntries: a consumed prefix is cleared, and an entry that still
// references a task references a queued one — a taken entry no longer
// does. The distinct live tasks are Len.
func checkEntries(s Scheduler, queued map[*task.Task]bool) error {
	seen := map[*task.Task]bool{}
	for _, q := range queuesOf(s) {
		for i, e := range q.q {
			if i < q.head {
				if e != nil {
					return fmt.Errorf("consumed slot %d of %d still holds an entry", i, q.head)
				}
				continue
			}
			if e.t == nil {
				continue
			}
			if !queued[e.t] {
				return fmt.Errorf("an entry still references %v, which was taken", e.t)
			}
			seen[e.t] = true
		}
	}
	if len(seen) != s.Len() || len(queued) != s.Len() {
		return fmt.Errorf("entries reference %d tasks, %d are queued, Len is %d", len(seen), len(queued), s.Len())
	}
	p := s.(*pool)
	for i := range p.local {
		var sum time.Duration
		for _, e := range p.local[i].q[p.local[i].head:] {
			if e.t != nil {
				sum += e.cost
			}
		}
		if sum != p.backlog[i] {
			return fmt.Errorf("place %d: backlog %v, its live entries cost %v", i, p.backlog[i], sum)
		}
	}
	return nil
}

// checkIdle: a place pops nil only while no queued task is one it can run.
// Every bound task costs more than zero, so every queued task is in reach
// of a place that can run it: in the FIFO, or stolen.
func checkIdle(place int, queued map[*task.Task]bool) error {
	for t := range queued {
		if deviceFilter(place, t) {
			return fmt.Errorf("place %d popped nil with %v queued", place, t)
		}
	}
	return nil
}

// runOps drives s with ops, two bytes each: Submit (of a new task, with a
// device, a release place and a placement), Pop or Drain at a place. A
// drained task is resubmitted, as the fault-tolerant runtime does. Then
// every place pops until none finds work. It checks, after every op, the
// entries and backlogs (checkEntries), after every nil pop that the place
// had nothing to run (checkIdle), and at the end that every task left
// exactly once and that the FIFO-routed tasks of each device left in
// submission order.
func runOps(policy Policy, perDevice bool, ops []byte) error {
	tasks := map[task.ID]*propTask{}
	s := New(policy, propPlaces, propOptions(tasks, perDevice))
	queued := map[*task.Task]bool{}
	left := map[*task.Task]int{}
	ordered := map[*task.Task]int{} // FIFO-routed task -> submission number
	lastOut := map[task.Device]int{}
	var id task.ID
	var all []*task.Task
	out := func(t *task.Task) error {
		if !queued[t] {
			return fmt.Errorf("%v left but was not queued", t)
		}
		delete(queued, t)
		left[t]++
		if n, ok := ordered[t]; ok {
			if n < lastOut[t.Device] {
				return fmt.Errorf("%v (submission %d) left after submission %d of its device", t, n, lastOut[t.Device])
			}
			lastOut[t.Device] = n
		}
		return nil
	}
	submit := func(t *task.Task, releasedBy int) {
		if fifoRouted(policy, tasks[t.ID], releasedBy) {
			ordered[t] = len(ordered)
		} else {
			delete(ordered, t)
		}
		queued[t] = true
		s.Submit(t, releasedBy)
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], int(ops[1])
		place := arg % propPlaces
		switch op % 4 {
		case 0, 1:
			id++
			dev := task.SMP
			if arg&4 != 0 {
				dev = task.CUDA
			}
			p := &propTask{placed: arg&8 != 0, rank: time.Duration(arg>>6) * ms}
			// A placed task's place runs its device.
			if p.place = 0; dev == task.CUDA {
				p.place = 1 + arg>>4&1
			}
			tasks[id] = p
			t := &task.Task{ID: id, Name: "p", Device: dev}
			all = append(all, t)
			submit(t, int(op>>2)%(propPlaces+1)-1)
		case 2:
			t := s.Pop(place)
			if t == nil {
				if err := checkIdle(place, queued); err != nil {
					return err
				}
			} else if err := out(t); err != nil {
				return err
			}
		case 3:
			for _, t := range s.Drain(place) {
				delete(queued, t)
				submit(t, -1)
			}
		}
		if err := checkEntries(s, queued); err != nil {
			return fmt.Errorf("after op %d %d: %w", op%4, arg, err)
		}
	}
	for idle := 0; idle < propPlaces; {
		for p := 0; p < propPlaces; p++ {
			t := s.Pop(p)
			if t == nil {
				if err := checkIdle(p, queued); err != nil {
					return err
				}
				idle++
				continue
			}
			idle = 0
			if err := out(t); err != nil {
				return err
			}
		}
	}
	if err := checkEntries(s, queued); err != nil {
		return err
	}
	for _, t := range all {
		if left[t] != 1 {
			return fmt.Errorf("%v left %d times", t, left[t])
		}
	}
	return nil
}

// TestQueueProperties runs random Submit/Pop/Drain sequences over all four
// policies, with Accepts nil and per device: no task is lost or
// duplicated, each device's FIFO-routed tasks keep submission order, a
// taken entry no longer references its task, a backlog is its queue's
// cost, and a place that can run a queued task pops one.
func TestQueueProperties(t *testing.T) {
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		for _, perDevice := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/perDevice=%v", policy, perDevice), func(t *testing.T) {
				prop := func(ops []byte) bool {
					if err := runOps(policy, perDevice, ops); err != nil {
						t.Log(err)
						return false
					}
					return true
				}
				// Up to 300 ops: long enough for queues to wrap and compact.
				gen := func(v []reflect.Value, r *rand.Rand) {
					ops := make([]byte, 2*r.Intn(300))
					r.Read(ops)
					v[0] = reflect.ValueOf(ops)
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 300, Values: gen}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
