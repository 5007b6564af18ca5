package sched

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/task"
)

// costMap lets tests fix per-task, per-place estimates.
type costMap map[task.ID][]Estimate

func (m costMap) fn(t *task.Task) []Estimate { return m[t.ID] }

// rankMap lets tests fix per-task upward ranks.
type rankMap map[task.ID]time.Duration

func (m rankMap) fn(t *task.Task) time.Duration { return m[t.ID] }

const ms = time.Millisecond

func est(compute, transfer time.Duration) Estimate {
	return Estimate{Compute: compute, Transfer: transfer}
}

// incompat marks a place unusable for the task.
var incompat = Estimate{Compute: -1}

func TestHEFTRequiresCostModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without a CostFn")
		}
	}()
	New(HEFT, 2, Options{})
}

func TestHEFTPicksEarliestFinishPlace(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 2, Options{Cost: costs.fn})
	a, b := mk("a"), mk("b")
	// Place 1 computes a twice as fast, and nothing is queued: a goes there.
	costs[a.ID] = []Estimate{est(10*ms, 0), est(5*ms, 0)}
	s.Submit(a, -1)
	if got := s.Pop(0); got != nil {
		t.Fatalf("place 0 pop = %v, want nil", got)
	}
	// b is also faster at place 1 (6ms vs 8ms), but place 1 now carries a's
	// 5ms backlog: 5+6 > 0+8, so earliest finish is place 0.
	costs[b.ID] = []Estimate{est(8*ms, 0), est(6*ms, 0)}
	s.Submit(b, -1)
	if got := s.Pop(0); got != b {
		t.Fatalf("place 0 pop = %v, want b (EFT with backlog)", got)
	}
	if got := s.Pop(1); got != a {
		t.Fatalf("place 1 pop = %v, want a", got)
	}
}

func TestHEFTTransferCostCountsAgainstPlace(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 2, Options{Cost: costs.fn})
	a := mk("a")
	// Place 1 computes faster but must move data first; place 0 wins.
	costs[a.ID] = []Estimate{est(10*ms, 0), est(5*ms, 20*ms)}
	s.Submit(a, -1)
	if got := s.Pop(0); got != a {
		t.Fatalf("place 0 pop = %v, want a", got)
	}
}

func TestHEFTRankOrdersPlaceQueue(t *testing.T) {
	costs, ranks := costMap{}, rankMap{}
	s := New(HEFT, 1, Options{Cost: costs.fn, Rank: ranks.fn})
	low, high, mid := mk("low"), mk("high"), mk("mid")
	for _, tk := range []*task.Task{low, high, mid} {
		costs[tk.ID] = []Estimate{est(ms, 0)}
	}
	ranks[low.ID], ranks[high.ID], ranks[mid.ID] = 1*ms, 9*ms, 5*ms
	s.Submit(low, -1)
	s.Submit(high, -1)
	s.Submit(mid, -1)
	for _, want := range []*task.Task{high, mid, low} {
		if got := s.Pop(0); got != want {
			t.Fatalf("pop = %v, want %v (rank order)", got, want)
		}
	}
}

func TestHEFTIncompatiblePlacesGoGlobal(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 2, Options{Cost: costs.fn, CanRun: deviceFilter})
	cu := mkDev("cu", task.CUDA)
	// The estimator marks both places incompatible (e.g. the only GPU died).
	costs[cu.ID] = []Estimate{incompat, incompat}
	s.Submit(cu, -1)
	if got := s.Pop(0); got != nil {
		t.Fatalf("cpu place popped %v from global despite the filter", got)
	}
	if got := s.Pop(1); got != cu {
		t.Fatalf("gpu place pop = %v, want cu", got)
	}
}

func TestHEFTStealsFromDeepestBacklog(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 3, Options{Cost: costs.fn, Steal: true})
	a, b, c := mk("a"), mk("b"), mk("c")
	// All three bind to place 1 (cheapest there), piling up backlog.
	for _, tk := range []*task.Task{a, b, c} {
		costs[tk.ID] = []Estimate{est(90*ms, 0), est(ms, 0), est(90*ms, 0)}
	}
	s.Submit(a, -1)
	s.Submit(b, -1)
	s.Submit(c, -1)
	// Place 2 is idle: it steals the newest (lowest-rank) entry from place 1.
	if got := s.Pop(2); got != c {
		t.Fatalf("steal = %v, want c", got)
	}
	if got := s.Pop(1); got != a {
		t.Fatalf("victim pop = %v, want a", got)
	}
}

// Tasks estimated at 0 everywhere all bind to place 0 (every finish time
// ties) and add nothing to its backlog; idle places still steal them.
func TestHEFTStealsZeroCostTasks(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 3, Options{Cost: costs.fn, Steal: true})
	a, b := mk("a"), mk("b")
	for _, tk := range []*task.Task{a, b} {
		costs[tk.ID] = []Estimate{est(0, 0), est(0, 0), est(0, 0)}
		s.Submit(tk, -1)
	}
	if got := s.Pop(1); got != b {
		t.Fatalf("place 1 popped %v, want b (len %d)", got, s.Len())
	}
	if got := s.Pop(2); got != a {
		t.Fatalf("place 2 popped %v, want a (len %d)", got, s.Len())
	}
}

func TestHEFTStealRespectsFilter(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 2, Options{Cost: costs.fn, Steal: true, CanRun: deviceFilter})
	cu := mkDev("cu", task.CUDA)
	costs[cu.ID] = []Estimate{incompat, est(ms, 0)}
	s.Submit(cu, -1)
	// The CPU place must not steal the GPU-bound CUDA task.
	if got := s.Pop(0); got != nil {
		t.Fatalf("cpu stole CUDA task %v", got)
	}
	if got := s.Pop(1); got != cu {
		t.Fatalf("gpu pop = %v, want cu", got)
	}
}

// TestHeterogeneousDrainRequeue is the fault-tolerance contract on a
// heterogeneous node, for both place-bound policies: when a GPU place
// dies, its drained CUDA tasks resubmit and must land only on compatible
// survivors — the other GPU place, never the CPU pool.
func TestHeterogeneousDrainRequeue(t *testing.T) {
	// Places: 0 = CPU (SMP only), 1 and 2 = GPUs (CUDA only).
	mkSched := func(policy Policy) Scheduler {
		switch policy {
		case Affinity:
			// Everything scores to place 1.
			score := func(tk *task.Task) []uint64 { return []uint64{0, 10, 0} }
			return New(Affinity, 3, Options{Score: score, Steal: true, CanRun: deviceFilter})
		case HEFT:
			costs := func(tk *task.Task) []Estimate {
				return []Estimate{incompat, est(ms, 0), est(10*ms, 0)}
			}
			return New(HEFT, 3, Options{Cost: costs, Steal: true, CanRun: deviceFilter})
		}
		panic("unreachable")
	}
	for _, policy := range []Policy{Affinity, HEFT} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			s := mkSched(policy)
			a, b := mkDev("a", task.CUDA), mkDev("b", task.CUDA)
			s.Submit(a, -1)
			s.Submit(b, -1)
			// Place 1 dies; its queue drains in order.
			drained := s.Drain(1)
			if len(drained) != 2 || drained[0] != a || drained[1] != b {
				t.Fatalf("drained = %v, want [a b]", drained)
			}
			// The runtime resubmits the drained tasks. They must be poppable
			// by the surviving GPU place and invisible to the CPU pool.
			for _, tk := range drained {
				s.Submit(tk, -1)
			}
			if got := s.Pop(0); got != nil {
				t.Fatalf("cpu pool popped requeued CUDA task %v", got)
			}
			got1, got2 := s.Pop(2), s.Pop(2)
			if got1 == nil || got2 == nil {
				t.Fatalf("survivor pops = %v, %v, want both requeued tasks", got1, got2)
			}
			if s.Len() != 0 {
				t.Fatalf("len = %d after requeue drain", s.Len())
			}
		})
	}
}

func TestHEFTDrainResetsBacklog(t *testing.T) {
	costs := costMap{}
	s := New(HEFT, 2, Options{Cost: costs.fn})
	a, b := mk("a"), mk("b")
	costs[a.ID] = []Estimate{est(ms, 0), est(100*ms, 0)}
	costs[b.ID] = []Estimate{est(50*ms, 0), est(3*ms, 0)}
	s.Submit(a, -1) // binds to place 0 with 1ms backlog
	if got := s.Drain(0); len(got) != 1 || got[0] != a {
		t.Fatalf("Drain(0) = %v, want [a]", got)
	}
	// With place 0's backlog reset, b's EFT must not see stale 1ms: place 1
	// at 3ms beats place 0 at 50ms regardless, but resubmitted a (1ms vs
	// 100ms) must rebind to place 0 from a clean slate.
	s.Submit(a, -1)
	s.Submit(b, -1)
	if got := s.Pop(0); got != a {
		t.Fatalf("place 0 pop = %v, want a", got)
	}
	if got := s.Pop(1); got != b {
		t.Fatalf("place 1 pop = %v, want b", got)
	}
}

// withCost sets the heft policy's inputs on o.
func withCost(o Options, cost CostFn, rank RankFn) Options {
	o.Cost, o.Rank = cost, rank
	return o
}
