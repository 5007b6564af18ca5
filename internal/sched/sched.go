// Package sched implements the three task scheduling policies evaluated in
// the paper (Section III.C.2) plus a cost-model policy for heterogeneous
// machines:
//
//   - breadth-first ("bf"): a single FIFO ready queue;
//   - dependencies ("dependencies", the runtime default): breadth-first,
//     except that a thread finishing a task first tries to run one of the
//     successors that task released, since they share data;
//   - locality-aware ("affinity"): each ready task is scored against every
//     execution place from the sizes and placement of its data; it queues
//     at the place with the highest affinity, or in a global queue when no
//     place dominates. Idle places take from their local queue, then the
//     global queue, then steal from other places to fix load imbalance;
//   - earliest-finish ("heft"): HEFT-style list scheduling over a per-place
//     cost model (CostModel). Ready tasks are prioritized by upward rank
//     (critical-path length below the task) and each is assigned to the
//     place with the earliest estimated finish time: the place's projected
//     compute backlog, plus the data movement needed to reach it, plus the
//     task's compute cost on that device. Unlike affinity, heft
//     distinguishes device generations — a faster GPU wins ties that byte
//     counts cannot see — which is what makes it pay off on mixed
//     GTX480/Tesla clusters.
//
// Places are dense integer ids; the runtime decides what a place is (a GPU
// manager thread, the CPU worker pool, or a remote cluster node). Because
// the runtime is heterogeneous, every pop is filtered by a compatibility
// predicate (an SMP-only place never receives a CUDA task).
package sched

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/task"
)

// Policy selects a scheduling strategy.
type Policy string

const (
	// BreadthFirst is simple FIFO scheduling ("bf" in the paper's charts).
	BreadthFirst Policy = "bf"
	// Dependencies is FIFO plus run-a-successor-first ("default").
	Dependencies Policy = "dependencies"
	// Affinity is the locality-aware policy ("affinity").
	Affinity Policy = "affinity"
	// HEFT is the heterogeneous earliest-finish-time policy ("heft"):
	// upward-rank priorities over a per-place cost model.
	HEFT Policy = "heft"
)

// ScoreFn returns, for each place id, the affinity score of t: the total
// bytes of t's data already resident at that place, so that big data
// dominates the placement. Supplied by the coherence layer. Incompatible
// places must score zero.
type ScoreFn func(t *task.Task) []uint64

// CanRunFn reports whether a place can execute a task (device match).
type CanRunFn func(place int, t *task.Task) bool

// Estimate is the projected cost of running one task at one place,
// produced by the runtime's cost estimator (gpusim roofline costs plus
// coherence-directory movement costs).
type Estimate struct {
	// Compute is the task's execution time on the place's device. A
	// negative Compute marks the place incompatible with the task.
	Compute time.Duration
	// Transfer is the data movement needed before the task can start
	// there: bytes its copy clauses reference that the place does not
	// already hold, priced over the links they would cross.
	Transfer time.Duration
}

// Incompatible marks an Estimate's place unusable for the task.
func (e Estimate) Incompatible() bool { return e.Compute < 0 }

// CostFn returns, for each place id, the estimated cost of running t
// there. The slice is indexed like ScoreFn's.
type CostFn func(t *task.Task) []Estimate

// RankFn returns t's upward rank: its compute cost plus the longest
// compute chain among tasks currently known to depend on it. Higher ranks
// schedule first (they head the critical path).
type RankFn func(t *task.Task) time.Duration

// CostModel supplies the heft policy's inputs. Estimates is required;
// a nil Rank treats every task as rank zero (FIFO within a place).
type CostModel struct {
	Estimates CostFn
	Rank      RankFn
}

// Scheduler is a ready-task pool.
type Scheduler interface {
	// Submit adds a ready task. releasedBy is the place whose finishing
	// task released this one, or -1 when it became ready at submit time.
	Submit(t *task.Task, releasedBy int)
	// Pop removes and returns a task the given place can run, or nil.
	Pop(place int) *task.Task
	// Drain removes and returns every task queued specifically for the
	// given place (nil for policies without place-bound queues, whose
	// tasks any surviving place will pop anyway). The fault-tolerant
	// runtime drains a dead place to resubmit its work elsewhere.
	Drain(place int) []*task.Task
	// Len returns the number of queued tasks.
	Len() int
}

// Hooks observes scheduler activity through registry instruments. Nil
// instruments no-op, so the zero Hooks is valid.
type Hooks struct {
	// Queued tracks the live queue depth; its high-water mark (Gauge.Max)
	// records the deepest backlog of the run.
	Queued *metrics.Gauge
	// Steals counts tasks taken from another place's local queue.
	Steals *metrics.Counter
}

// Options are the policy inputs and observers of a scheduler; the zero
// value suits the bf and dependencies policies.
type Options struct {
	// Score is required by the Affinity policy, ignored otherwise.
	Score ScoreFn
	// Cost is required by the HEFT policy, ignored otherwise.
	Cost *CostModel
	// Steal enables work stealing between place-bound queues.
	Steal bool
	// CanRun filters task-place compatibility (nil means any place runs
	// any task).
	CanRun CanRunFn
	// Hooks attaches observation instruments.
	Hooks Hooks
}

// New builds a scheduler with the given policy over places execution
// places.
func New(policy Policy, places int, o Options) Scheduler {
	canRun, h := o.CanRun, o.Hooks
	if canRun == nil {
		canRun = func(int, *task.Task) bool { return true }
	}
	switch policy {
	case BreadthFirst:
		return &bfSched{canRun: canRun, hooks: h}
	case Dependencies:
		return &depSched{canRun: canRun, perPlace: make(map[int][]*entry), hooks: h}
	case Affinity:
		if o.Score == nil {
			panic("sched: Affinity policy requires a ScoreFn")
		}
		return &affSched{places: places, score: o.Score, steal: o.Steal, canRun: canRun,
			local: make([][]*entry, places), hooks: h}
	case HEFT:
		if o.Cost == nil || o.Cost.Estimates == nil {
			panic("sched: HEFT policy requires a CostModel with Estimates")
		}
		return &heftSched{places: places, cost: o.Cost.Estimates, rank: o.Cost.Rank,
			steal: o.Steal, canRun: canRun,
			local: make([][]*entry, places), backlog: make([]time.Duration, places), hooks: h}
	default:
		panic(fmt.Sprintf("sched: unknown policy %q", policy))
	}
}

// entry wraps a task so it can sit in several queues; the first Pop that
// reaches it takes it. compute and rank are only set by the heft policy
// (the place's backlog accounting and priority order).
type entry struct {
	t       *task.Task
	taken   bool
	compute time.Duration
	rank    time.Duration
}

// popFront takes the oldest live entry satisfying pred, compacting consumed
// entries from the front as a side effect.
func popFront(q *[]*entry, pred func(*task.Task) bool) *entry {
	// Drop already-taken entries from the head.
	for len(*q) > 0 && (*q)[0].taken {
		*q = (*q)[1:]
	}
	for i := 0; i < len(*q); i++ {
		e := (*q)[i]
		if e.taken || !pred(e.t) {
			continue
		}
		e.taken = true
		return e
	}
	return nil
}

// popBack takes the newest live entry satisfying pred.
func popBack(q *[]*entry, pred func(*task.Task) bool) *entry {
	for len(*q) > 0 && (*q)[len(*q)-1].taken {
		*q = (*q)[:len(*q)-1]
	}
	for i := len(*q) - 1; i >= 0; i-- {
		e := (*q)[i]
		if e.taken || !pred(e.t) {
			continue
		}
		e.taken = true
		return e
	}
	return nil
}

func liveLen(q []*entry) int {
	n := 0
	for _, e := range q {
		if !e.taken {
			n++
		}
	}
	return n
}

// bfSched: plain FIFO.
type bfSched struct {
	canRun CanRunFn
	fifo   []*entry
	hooks  Hooks
}

func (s *bfSched) Submit(t *task.Task, releasedBy int) {
	s.fifo = append(s.fifo, &entry{t: t})
	s.hooks.Queued.Add(1)
}

func (s *bfSched) Pop(place int) *task.Task {
	e := popFront(&s.fifo, func(t *task.Task) bool { return s.canRun(place, t) })
	if e == nil {
		return nil
	}
	s.hooks.Queued.Add(-1)
	return e.t
}

func (s *bfSched) Drain(place int) []*task.Task { return nil }

func (s *bfSched) Len() int { return liveLen(s.fifo) }

// depSched: FIFO plus per-place successor lists.
type depSched struct {
	canRun   CanRunFn
	fifo     []*entry
	perPlace map[int][]*entry
	hooks    Hooks
}

func (s *depSched) Submit(t *task.Task, releasedBy int) {
	e := &entry{t: t}
	s.fifo = append(s.fifo, e)
	s.hooks.Queued.Add(1)
	if releasedBy >= 0 {
		// The place that released this successor should pick it up next, to
		// reuse the data the predecessor just produced.
		s.perPlace[releasedBy] = append(s.perPlace[releasedBy], e)
	}
}

func (s *depSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	q := s.perPlace[place]
	e := popBack(&q, pred) // most recently released first
	s.perPlace[place] = q
	if e == nil {
		e = popFront(&s.fifo, pred)
	}
	if e == nil {
		return nil
	}
	s.hooks.Queued.Add(-1)
	return e.t
}

// Drain forgets the dead place's successor hints; the entries stay live in
// the shared FIFO, where any surviving place pops them.
func (s *depSched) Drain(place int) []*task.Task {
	delete(s.perPlace, place)
	return nil
}

func (s *depSched) Len() int { return liveLen(s.fifo) }

// affSched: per-place queues + global queue + stealing.
type affSched struct {
	places int
	score  ScoreFn
	steal  bool
	canRun CanRunFn
	local  [][]*entry
	global []*entry
	hooks  Hooks
}

// bestPlace returns the place with the strictly highest score, or -1 when
// no single place dominates (all-zero or tied maxima) — such tasks go to
// the global queue, as in Martinell's strategy the paper adopts.
func bestPlace(scores []uint64) int {
	best, bestAt, ties := uint64(0), -1, 0
	for i, s := range scores {
		switch {
		case s > best:
			best, bestAt, ties = s, i, 1
		case s == best && s > 0:
			ties++
		}
	}
	if best == 0 || ties > 1 {
		return -1
	}
	return bestAt
}

func (s *affSched) Submit(t *task.Task, releasedBy int) {
	e := &entry{t: t}
	s.hooks.Queued.Add(1)
	if p := bestPlace(s.score(t)); p >= 0 && p < s.places && s.canRun(p, t) {
		s.local[p] = append(s.local[p], e)
		return
	}
	s.global = append(s.global, e)
}

func (s *affSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	if place >= 0 && place < s.places {
		if e := popFront(&s.local[place], pred); e != nil {
			s.hooks.Queued.Add(-1)
			return e.t
		}
	}
	if e := popFront(&s.global, pred); e != nil {
		s.hooks.Queued.Add(-1)
		return e.t
	}
	if !s.steal {
		return nil
	}
	// Steal from the place with the most queued work (lowest id on ties),
	// taking the newest entry to preserve the victim's own locality order.
	victim, max := -1, 0
	for i := range s.local {
		if i == place {
			continue
		}
		if n := liveLen(s.local[i]); n > max {
			victim, max = i, n
		}
	}
	if victim < 0 {
		return nil
	}
	e := popBack(&s.local[victim], pred)
	if e == nil {
		return nil
	}
	s.hooks.Queued.Add(-1)
	s.hooks.Steals.Inc()
	return e.t
}

// Drain takes every live task queued locally at place, in queue order.
// Affinity is the one policy whose tasks can strand on a dead place.
func (s *affSched) Drain(place int) []*task.Task {
	if place < 0 || place >= s.places {
		return nil
	}
	var out []*task.Task
	for _, e := range s.local[place] {
		if !e.taken {
			e.taken = true
			out = append(out, e.t)
		}
	}
	s.local[place] = nil
	s.hooks.Queued.Add(-int64(len(out)))
	return out
}

func (s *affSched) Len() int {
	n := liveLen(s.global)
	for _, q := range s.local {
		n += liveLen(q)
	}
	return n
}

// heftSched: HEFT-style list scheduling. Each ready task is bound at
// submit time to the place with the earliest estimated finish time —
// the place's projected compute backlog plus the task's transfer and
// compute estimates there — and place queues are kept in upward-rank
// order so critical-path tasks dispatch first.
type heftSched struct {
	places int
	cost   CostFn
	rank   RankFn
	steal  bool
	canRun CanRunFn
	// local[p] holds the tasks bound to place p, sorted by descending
	// rank (stable: equal ranks keep submission order).
	local [][]*entry
	// global holds tasks no place can run right now (e.g. every
	// compatible place is dead); any place that becomes able pops them.
	global []*entry
	// backlog[p] is the projected compute time queued at place p: the sum
	// of the Compute estimates of its queued entries. Pops and steals pay
	// it down. Execution time while a task runs is not tracked — the
	// backlog is a queue-pressure signal, not a clock.
	backlog []time.Duration
	hooks   Hooks
}

func (s *heftSched) Submit(t *task.Task, releasedBy int) {
	est := s.cost(t)
	if len(est) != s.places {
		panic(fmt.Sprintf("sched: CostFn returned %d estimates for %d places", len(est), s.places))
	}
	e := &entry{t: t}
	if s.rank != nil {
		e.rank = s.rank(t)
	}
	s.hooks.Queued.Add(1)
	best := -1
	var bestEFT time.Duration
	for p := 0; p < s.places; p++ {
		if est[p].Incompatible() || !s.canRun(p, t) {
			continue
		}
		eft := s.backlog[p] + est[p].Transfer + est[p].Compute
		if best < 0 || eft < bestEFT {
			best, bestEFT = p, eft // ties keep the lowest place id
		}
	}
	if best < 0 {
		s.global = append(s.global, e)
		return
	}
	e.compute = est[best].Compute
	s.backlog[best] += e.compute
	s.insertByRank(best, e)
}

// insertByRank places e into local[p] before the first live entry of
// strictly lower rank, so the queue stays rank-descending and stable.
func (s *heftSched) insertByRank(p int, e *entry) {
	q := s.local[p]
	at := len(q)
	for i, o := range q {
		if !o.taken && o.rank < e.rank {
			at = i
			break
		}
	}
	q = append(q, nil)
	copy(q[at+1:], q[at:])
	q[at] = e
	s.local[p] = q
}

func (s *heftSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	if place >= 0 && place < s.places {
		if e := popFront(&s.local[place], pred); e != nil {
			s.hooks.Queued.Add(-1)
			s.backlog[place] -= e.compute
			return e.t
		}
	}
	if e := popFront(&s.global, pred); e != nil {
		s.hooks.Queued.Add(-1)
		return e.t
	}
	if !s.steal {
		return nil
	}
	// Steal from the place with the deepest projected backlog (lowest id
	// on ties), taking its lowest-rank entry: the critical path stays with
	// the victim, the tail work migrates.
	victim := -1
	var max time.Duration
	for i := range s.local {
		if i == place || liveLen(s.local[i]) == 0 {
			continue
		}
		if s.backlog[i] > max {
			victim, max = i, s.backlog[i]
		}
	}
	if victim < 0 {
		return nil
	}
	e := popBack(&s.local[victim], pred)
	if e == nil {
		return nil
	}
	s.hooks.Queued.Add(-1)
	s.hooks.Steals.Inc()
	s.backlog[victim] -= e.compute
	return e.t
}

// Drain takes every live task bound to place and zeroes its backlog; the
// fault-tolerant runtime resubmits them, re-estimating against the
// surviving places.
func (s *heftSched) Drain(place int) []*task.Task {
	if place < 0 || place >= s.places {
		return nil
	}
	var out []*task.Task
	for _, e := range s.local[place] {
		if !e.taken {
			e.taken = true
			out = append(out, e.t)
		}
	}
	s.local[place] = nil
	s.backlog[place] = 0
	s.hooks.Queued.Add(-int64(len(out)))
	return out
}

func (s *heftSched) Len() int {
	n := liveLen(s.global)
	for _, q := range s.local {
		n += liveLen(q)
	}
	return n
}
