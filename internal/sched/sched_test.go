package sched

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/task"
)

var nextID task.ID

func mk(name string) *task.Task {
	nextID++
	return &task.Task{ID: nextID, Name: name}
}

func TestBreadthFirstFIFO(t *testing.T) {
	s := New(BreadthFirst, 2, Options{})
	a, b, c := mk("a"), mk("b"), mk("c")
	s.Submit(a, -1)
	s.Submit(b, 0)
	s.Submit(c, 1)
	if got := s.Pop(1); got != a {
		t.Fatalf("first pop = %v", got)
	}
	if got := s.Pop(0); got != b {
		t.Fatalf("second pop = %v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Pop(0); got != c {
		t.Fatalf("third pop = %v", got)
	}
	if got := s.Pop(0); got != nil {
		t.Fatalf("empty pop = %v", got)
	}
}

func TestDependenciesPrefersOwnSuccessor(t *testing.T) {
	s := New(Dependencies, 2, Options{})
	a, b, c := mk("a"), mk("b"), mk("c")
	s.Submit(a, -1) // plain ready task, queued first
	s.Submit(b, 1)  // released by a task that finished at place 1
	s.Submit(c, 1)  // released later at place 1
	// Place 1 takes its own most recent successor first, ahead of FIFO.
	if got := s.Pop(1); got != c {
		t.Fatalf("place 1 pop = %v, want c", got)
	}
	if got := s.Pop(1); got != b {
		t.Fatalf("place 1 second pop = %v, want b", got)
	}
	// Exhausted successors: fall back to FIFO.
	if got := s.Pop(1); got != a {
		t.Fatalf("place 1 third pop = %v, want a", got)
	}
}

func TestDependenciesSuccessorVisibleToOthers(t *testing.T) {
	s := New(Dependencies, 2, Options{})
	b := mk("b")
	s.Submit(b, 1)
	// Another place can still take it from the FIFO (no task is stranded).
	if got := s.Pop(0); got != b {
		t.Fatalf("pop = %v", got)
	}
	// And it must not be handed out twice via the successor list.
	if got := s.Pop(1); got != nil {
		t.Fatalf("duplicate pop = %v", got)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
}

// scoreMap lets tests fix per-task scores.
type scoreMap map[task.ID][]uint64

func (m scoreMap) fn(t *task.Task) []uint64 { return m[t.ID] }

func TestAffinityRoutesToHighestScore(t *testing.T) {
	scores := scoreMap{}
	s := New(Affinity, 3, Options{Score: scores.fn, Steal: true})
	a, b := mk("a"), mk("b")
	scores[a.ID] = []uint64{0, 100, 0} // place 1 dominates
	scores[b.ID] = []uint64{50, 0, 10} // place 0 dominates
	s.Submit(a, -1)
	s.Submit(b, -1)
	if got := s.Pop(1); got != a {
		t.Fatalf("place 1 pop = %v", got)
	}
	if got := s.Pop(0); got != b {
		t.Fatalf("place 0 pop = %v", got)
	}
}

func TestAffinityTiesGoGlobal(t *testing.T) {
	scores := scoreMap{}
	s := New(Affinity, 2, Options{Score: scores.fn})
	a, b := mk("a"), mk("b")
	scores[a.ID] = []uint64{0, 0}   // nothing resident anywhere
	scores[b.ID] = []uint64{40, 40} // tie
	s.Submit(a, -1)
	s.Submit(b, -1)
	// Global queue is reachable from any place, FIFO order.
	if got := s.Pop(0); got != a {
		t.Fatalf("pop = %v", got)
	}
	if got := s.Pop(1); got != b {
		t.Fatalf("pop = %v", got)
	}
}

func TestAffinityStealing(t *testing.T) {
	scores := scoreMap{}
	s := New(Affinity, 2, Options{Score: scores.fn, Steal: true})
	var queued []*task.Task
	for i := 0; i < 3; i++ {
		x := mk(fmt.Sprintf("t%d", i))
		scores[x.ID] = []uint64{100, 0} // all affine to place 0
		s.Submit(x, -1)
		queued = append(queued, x)
	}
	// Place 1 has nothing local or global: it steals the newest entry from
	// place 0.
	if got := s.Pop(1); got != queued[2] {
		t.Fatalf("steal = %v, want %v", got, queued[2])
	}
	// Place 0 still drains its own queue in FIFO order.
	if got := s.Pop(0); got != queued[0] {
		t.Fatalf("own pop = %v", got)
	}
}

func TestAffinityStealDisabled(t *testing.T) {
	scores := scoreMap{}
	s := New(Affinity, 2, Options{Score: scores.fn})
	x := mk("x")
	scores[x.ID] = []uint64{100, 0}
	s.Submit(x, -1)
	if got := s.Pop(1); got != nil {
		t.Fatalf("pop with stealing disabled = %v", got)
	}
	if got := s.Pop(0); got != x {
		t.Fatalf("owner pop = %v", got)
	}
}

func TestAffinityRequiresScoreFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Affinity, 2, Options{Steal: true})
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Policy("nope"), 1, Options{})
}

func TestBestPlace(t *testing.T) {
	cases := []struct {
		scores []uint64
		want   int
	}{
		{[]uint64{0, 0, 0}, -1},
		{[]uint64{5, 0, 0}, 0},
		{[]uint64{5, 5, 0}, -1},
		{[]uint64{1, 2, 3}, 2},
		{[]uint64{}, -1},
	}
	for _, c := range cases {
		if got := bestPlace(c.scores); got != c.want {
			t.Errorf("bestPlace(%v) = %d, want %d", c.scores, got, c.want)
		}
	}
}

// TestNoTaskLostOrDuplicated drains 50 mixed submissions of every policy,
// with Accepts nil and per device, and checks each task pops exactly once
// and no entry still references a popped task (see TestQueueProperties
// for random interleavings).
func TestNoTaskLostOrDuplicated(t *testing.T) {
	for _, policy := range []Policy{BreadthFirst, Dependencies, Affinity, HEFT} {
		for _, perDevice := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/perDevice=%v", policy, perDevice), func(t *testing.T) {
				scores, costs := scoreMap{}, costMap{}
				o := Options{Score: scores.fn, Cost: costs.fn, Steal: true}
				if perDevice {
					o.CanRun, o.Accepts = deviceFilter, deviceAccepts
				}
				s := New(policy, 3, o)
				const n = 50
				seen := make(map[task.ID]int)
				for i := 0; i < n; i++ {
					x := mkDev("x", task.Device(i%2))
					scores[x.ID] = []uint64{uint64(i % 4 * 10), uint64((i + 1) % 3 * 10), 0}
					costs[x.ID] = []Estimate{est(ms, 0), est(time.Duration(i%3)*ms, 0), incompat}
					s.Submit(x, i%4-1) // mix of -1..2
					seen[x.ID] = 0
				}
				// With no filter every policy serves every place while work
				// remains, so the first nil Pop must find the queue empty. A
				// per-device filter may return nil with work left for another
				// place, so those cells drain until every place is idle.
				strict := !perDevice
				for place, idle, pops := 0, 0, 0; idle < 3; place = (place + 1) % 3 {
					x := s.Pop(place)
					if x == nil {
						if strict && s.Len() != 0 {
							t.Fatalf("place %d popped nil with %d queued", place, s.Len())
						}
						idle++
						continue
					}
					if pops++; pops > n {
						t.Fatalf("%d pops of %d tasks", pops, n)
					}
					idle = 0
					seen[x.ID]++
				}
				if s.Len() != 0 {
					t.Fatalf("len = %d after drain", s.Len())
				}
				if err := checkEntries(s, nil); err != nil {
					t.Fatal(err)
				}
				for id, c := range seen {
					if c != 1 {
						t.Fatalf("task %d popped %d times", id, c)
					}
				}
			})
		}
	}
}

// A thief steals from the deepest backlog it can run something from: with
// three SMP tasks bound to the CPU pool (place 0) and one CUDA task bound
// to GPU place 2, idle GPU place 1 takes the CUDA task rather than finding
// nothing it can run at place 0.
func TestStealSkipsVictimsItCannotRun(t *testing.T) {
	score := func(tk *task.Task) []uint64 {
		if tk.Device == task.SMP {
			return []uint64{10, 0, 0}
		}
		return []uint64{0, 0, 10}
	}
	cost := func(tk *task.Task) []Estimate {
		if tk.Device == task.SMP {
			return []Estimate{est(ms, 0), incompat, incompat}
		}
		return []Estimate{incompat, incompat, est(ms, 0)}
	}
	for _, policy := range []Policy{Affinity, HEFT} {
		t.Run(string(policy), func(t *testing.T) {
			s := New(policy, 3, withCost(Options{Score: score, Steal: true, CanRun: deviceFilter}, cost, nil))
			for i := 0; i < 3; i++ {
				s.Submit(mkDev("sm", task.SMP), -1)
			}
			cu := mkDev("cu", task.CUDA)
			s.Submit(cu, -1)
			if got := s.Pop(1); got != cu {
				t.Fatalf("idle GPU place popped %v, want the CUDA task queued at place 2", got)
			}
		})
	}
}
