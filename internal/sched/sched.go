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
//   - earliest-finish ("heft"): HEFT-style list scheduling over per-place
//     cost estimates (CostFn). Ready tasks are prioritized by upward rank
//     (critical-path length below the task) and each is assigned to the
//     place with the earliest estimated finish time: the place's projected
//     compute backlog, plus the data movement needed to reach it, plus the
//     task's compute cost on that device. Unlike affinity, heft
//     distinguishes device generations — a faster GPU wins ties that byte
//     counts cannot see — which is what makes it pay off on mixed
//     GTX480/Tesla clusters.
//
// All four are one pool (see pool) that New configures: a shared FIFO,
// successor hints per place, and place queues that a bind function fills,
// each with a backlog a thief steals from.
//
// Places are dense integer ids; the runtime decides what a place is (a GPU
// manager thread, the CPU worker pool, or a remote cluster node). Because
// the runtime is heterogeneous, every pop is filtered by a compatibility
// predicate (an SMP-only place never receives a CUDA task), and the FIFO
// queues are split by device so that a pop never walks past the tasks of a
// device its place cannot run (Options.Accepts).
package sched

import (
	"fmt"
	"time"

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
// places must score zero. A scheduler reads the slice before its next
// call, so the function may return the same slice every time.
type ScoreFn func(t *task.Task) []uint64

// CanRunFn reports whether a place can execute a task (device match).
type CanRunFn func(place int, t *task.Task) bool

// AcceptsFn reports whether a place can ever run tasks of device d: the
// static half of CanRun, fixed for the scheduler's lifetime. CanRun must
// refuse every task of a device Accepts refuses.
type AcceptsFn func(place int, d task.Device) bool

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

// incompatible marks an Estimate's place unusable for the task.
func (e Estimate) incompatible() bool { return e.Compute < 0 }

// CostFn returns, for each place id, the estimated cost of running t
// there. The slice is indexed, and may be reused, like ScoreFn's.
type CostFn func(t *task.Task) []Estimate

// RankFn returns t's upward rank: its compute cost plus the longest
// compute chain among tasks currently known to depend on it. Higher ranks
// schedule first (they head the critical path).
type RankFn func(t *task.Task) time.Duration

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
	// Len returns the number of queued tasks: a count kept as they come
	// and go, so asking is O(1).
	Len() int
	// Steals returns how many tasks a place took from another place's
	// local queue.
	Steals() int
}

// Options are the policy inputs of a scheduler; the zero value suits the
// bf and dependencies policies.
type Options struct {
	// Score is required by the Affinity policy, ignored otherwise.
	Score ScoreFn
	// Cost is required by the HEFT policy, ignored otherwise.
	Cost CostFn
	// Rank orders the HEFT policy's place queues; nil ranks every task
	// zero (FIFO within a place). Ignored by the other policies.
	Rank RankFn
	// Steal enables work stealing between place-bound queues.
	Steal bool
	// CanRun filters task-place compatibility (nil means any place runs
	// any task).
	CanRun CanRunFn
	// Accepts narrows the devices a place's pop visits in the FIFO
	// queues, which are split by device; CanRun filters within them. Nil
	// means every place visits every device.
	Accepts AcceptsFn
}

// New builds a scheduler with the given policy over places execution
// places.
func New(policy Policy, places int, o Options) Scheduler {
	s := &pool{canRun: o.CanRun, fifo: fifo{accepts: o.Accepts}, steal: o.Steal}
	if s.canRun == nil {
		s.canRun = func(int, *task.Task) bool { return true }
	}
	switch policy {
	case BreadthFirst:
	case Dependencies:
		s.follow = true
	case Affinity:
		if o.Score == nil {
			panic("sched: Affinity policy requires a ScoreFn")
		}
		s.bind = s.byAffinity(o.Score)
	case HEFT:
		if o.Cost == nil {
			panic("sched: HEFT policy requires a CostFn")
		}
		s.bind, s.rank = s.byEarliestFinish(o.Cost), o.Rank
	default:
		panic(fmt.Sprintf("sched: unknown policy %q", policy))
	}
	if s.bind != nil {
		s.local, s.backlog = make([]queue, places), make([]time.Duration, places)
	}
	return s
}

// entry wraps a task so it can sit in several queues (a dependencies hint
// shares it with the FIFO); the first Pop that reaches it takes it
// (pool.take), clearing t: a nil t marks a consumed entry in every queue
// still holding it, and a consumed entry pins no task. seq is its
// submission number in a fifo. at is 1 + the place it is bound to (0 for
// none), whose backlog carries its cost; rank orders that place's queue.
type entry struct {
	t    *task.Task
	seq  uint32
	at   int32
	cost time.Duration
	rank time.Duration
}

// queue holds entries in arrival order (a place queue in rank order, see
// insertByRank). head skips the consumed prefix, whose slots are cleared
// as it passes them; push moves the live rest down instead of growing the
// array once the prefix is half of it, so a steady stream of pushes and
// front pops reuses one array.
type queue struct {
	q    []*entry
	head int
}

func (q *queue) push(e *entry) {
	if len(q.q) == cap(q.q) && q.head > 0 && 2*q.head >= len(q.q) {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, e)
}

// insertByRank puts e after the last live entry whose rank is at least
// e's, so the live entries stay rank-descending and equal ranks keep
// submission order. It scans from the back: an equal rank, as every rank
// of a policy without ranks is, appends at once.
func (q *queue) insertByRank(e *entry) {
	at := len(q.q)
	for at > q.head && (q.q[at-1].t == nil || q.q[at-1].rank < e.rank) {
		at--
	}
	at -= q.head // push may move the live entries down
	q.push(e)
	live := q.q[q.head:]
	copy(live[at+1:], live[at:len(live)-1])
	live[at] = e
}

// front returns the oldest live entry pred passes, without taking it,
// dropping the consumed prefix as a side effect: a queue left empty keeps
// its array for the next push.
func (q *queue) front(pred func(*task.Task) bool) *entry {
	for q.head < len(q.q) && q.q[q.head].t == nil {
		q.q[q.head] = nil
		q.head++
	}
	if q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
		return nil
	}
	for _, e := range q.q[q.head:] {
		if e.t != nil && pred(e.t) {
			return e
		}
	}
	return nil
}

// back returns the newest live entry pred passes, without taking it,
// dropping the consumed suffix as a side effect.
func (q *queue) back(pred func(*task.Task) bool) *entry {
	for len(q.q) > q.head && q.q[len(q.q)-1].t == nil {
		q.q[len(q.q)-1] = nil
		q.q = q.q[:len(q.q)-1]
	}
	for i := len(q.q) - 1; i >= q.head; i-- {
		if e := q.q[i]; e.t != nil && pred(e.t) {
			return e
		}
	}
	return nil
}

// fifo is a ready queue in submission order. It keeps one queue per device
// and numbers its entries, so that a pop visits only the devices its place
// accepts (all of them with no accepts) and still takes the oldest entry
// its filter passes.
type fifo struct {
	accepts AcceptsFn
	byDev   []queue // indexed by task.Device
	seq     uint32
}

func (f *fifo) push(e *entry) {
	d := int(e.t.Device)
	for len(f.byDev) <= d {
		f.byDev = append(f.byDev, queue{})
	}
	e.seq = f.seq
	f.seq++
	f.byDev[d].push(e)
}

// pop returns the oldest live entry, among the devices place accepts,
// that pred passes; the caller takes it.
func (f *fifo) pop(place int, pred func(*task.Task) bool) *entry {
	var oldest *entry
	for d := range f.byDev {
		if f.accepts != nil && !f.accepts(place, task.Device(d)) {
			continue
		}
		// Wrapping difference: numbers stay ordered across overflow while
		// the live entries span less than 2^31 submissions.
		if e := f.byDev[d].front(pred); e != nil && (oldest == nil || int32(e.seq-oldest.seq) < 0) {
			oldest = e
		}
	}
	return oldest
}

// pool is the ready-task pool of every policy; New sets what tells them
// apart: follow (dependencies), bind (affinity, heft) and rank (heft).
type pool struct {
	canRun CanRunFn
	// fifo holds every task that no place is bound to.
	fifo fifo
	// follow also queues a released task in hints[releasedBy], beside the
	// FIFO: the place that released it pops its newest hint first, to
	// reuse the data the predecessor just produced.
	follow bool
	hints  []queue
	// bind returns the place a task queues at (-1 for the FIFO) and the
	// cost it adds to that place's backlog.
	bind func(*task.Task) (place int, cost time.Duration)
	// rank orders each place queue, highest first (see insertByRank).
	rank RankFn
	// local[p] holds the tasks bound to place p, and backlog[p] the sum of
	// their costs. Pops, steals and Drain pay it down (take).
	local   []queue
	backlog []time.Duration
	// steal lets a place with nothing else to run take the newest entry
	// it can run from the deepest backlog of another place.
	steal bool
	// n counts the live tasks and steals the tasks taken by a steal;
	// entries come from slab.
	n, steals int
	slab      []entry
}

// byAffinity binds a task to the place holding strictly the most of its
// data, if that place can run it; tasks with no such place, as in
// Martinell's strategy the paper adopts, go to the FIFO. Each costs 1, so
// a place's backlog is its count of queued tasks.
func (s *pool) byAffinity(score ScoreFn) func(*task.Task) (int, time.Duration) {
	return func(t *task.Task) (int, time.Duration) {
		if p := bestPlace(score(t)); p >= 0 && p < len(s.local) && s.canRun(p, t) {
			return p, 1
		}
		return -1, 0
	}
}

// bestPlace returns the place with the strictly highest score, or -1 when
// no single place dominates (all-zero or tied maxima).
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

// byEarliestFinish binds a task to the place where it would finish first:
// the place's backlog plus the task's transfer and compute estimates there
// (lowest id on ties). Its cost is the compute estimate, so a backlog is
// projected compute time: a queue-pressure signal, not a clock, since a
// running task no longer counts. A task no place can run right now (every
// compatible place is dead) goes to the FIFO, where any place that becomes
// able pops it.
func (s *pool) byEarliestFinish(cost CostFn) func(*task.Task) (int, time.Duration) {
	return func(t *task.Task) (int, time.Duration) {
		est := cost(t)
		if len(est) != len(s.local) {
			panic(fmt.Sprintf("sched: CostFn returned %d estimates for %d places", len(est), len(s.local)))
		}
		best, bestEFT := -1, time.Duration(0)
		for p, e := range est {
			if e.incompatible() || !s.canRun(p, t) {
				continue
			}
			if eft := s.backlog[p] + e.Transfer + e.Compute; best < 0 || eft < bestEFT {
				best, bestEFT = p, eft
			}
		}
		if best < 0 {
			return -1, 0
		}
		return best, est[best].Compute
	}
}

func (s *pool) Len() int { return s.n }

func (s *pool) Steals() int { return s.steals }

func (s *pool) Submit(t *task.Task, releasedBy int) {
	// Entries come from a bulk-allocated slab, so a ready task costs no
	// allocation of its own.
	if len(s.slab) == 0 {
		s.slab = make([]entry, 256)
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	e.t = t
	s.n++
	p := -1
	if s.bind != nil {
		p, e.cost = s.bind(t)
	}
	if s.rank != nil {
		e.rank = s.rank(t) // even for the FIFO: ranks memoize as they go
	}
	if p >= 0 {
		e.at = int32(p) + 1
		s.backlog[p] += e.cost
		s.local[p].insertByRank(e)
		return
	}
	s.fifo.push(e)
	if s.follow && releasedBy >= 0 {
		for len(s.hints) <= releasedBy {
			s.hints = append(s.hints, queue{})
		}
		s.hints[releasedBy].push(e)
	}
}

// Pop takes, among the tasks place can run, its newest successor hint,
// else the head of its own queue, else the oldest in the FIFO, else a
// steal.
func (s *pool) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	var e *entry
	if place >= 0 && place < len(s.hints) {
		e = s.hints[place].back(pred)
	}
	if e == nil && place >= 0 && place < len(s.local) {
		e = s.local[place].front(pred)
	}
	if e == nil {
		e = s.fifo.pop(place, pred)
	}
	if e == nil && s.steal {
		if e = s.victim(place, pred); e != nil {
			s.steals++
		}
	}
	if e == nil {
		return nil
	}
	return s.take(e)
}

// victim returns the newest entry pred passes from the deepest backlog,
// other than place's, that holds one (lowest id on ties). A backlog of 0
// still counts: heft binds tasks estimated at 0 everywhere without adding
// to it. The newest is the lowest-rank: the critical path stays with the
// victim, the tail work migrates.
func (s *pool) victim(place int, pred func(*task.Task) bool) *entry {
	var got *entry
	deepest := time.Duration(-1)
	for p := range s.local {
		if p != place && s.backlog[p] > deepest {
			if e := s.local[p].back(pred); e != nil {
				got, deepest = e, s.backlog[p]
			}
		}
	}
	return got
}

// take counts e out and returns its task, clearing it (see entry), and
// pays its cost off the backlog of the place it is bound to.
func (s *pool) take(e *entry) *task.Task {
	if e.at > 0 {
		s.backlog[e.at-1] -= e.cost
	}
	t := e.t
	e.t = nil
	s.n--
	return t
}

// Drain forgets the place's successor hints, whose tasks stay in the FIFO
// for any surviving place, and takes every task bound to the place, in
// queue order: the fault-tolerant runtime resubmits them, to be bound
// again among the survivors.
func (s *pool) Drain(place int) []*task.Task {
	if place < 0 {
		return nil
	}
	if place < len(s.hints) {
		s.hints[place] = queue{}
	}
	if place >= len(s.local) {
		return nil
	}
	var out []*task.Task
	q := &s.local[place]
	for _, e := range q.q[q.head:] {
		if e.t != nil {
			out = append(out, s.take(e))
		}
	}
	*q = queue{}
	return out
}
