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
// predicate (an SMP-only place never receives a CUDA task), and the FIFO
// queues are split by device so that a pop never walks past the tasks of a
// device its place cannot run (Options.Accepts).
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

// Incompatible marks an Estimate's place unusable for the task.
func (e Estimate) incompatible() bool { return e.Compute < 0 }

// CostFn returns, for each place id, the estimated cost of running t
// there. The slice is indexed, and may be reused, like ScoreFn's.
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
	// Len returns the number of queued tasks: a count kept as they come
	// and go, so asking is O(1).
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
	// Accepts narrows the devices a place's pop visits in the FIFO
	// queues, which are split by device; CanRun filters within them. Nil
	// means every place visits every device.
	Accepts AcceptsFn
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
	ready := fifo{accepts: o.Accepts}
	switch policy {
	case BreadthFirst:
		return &bfSched{canRun: canRun, fifo: ready, queued: queued{hooks: h}}
	case Dependencies:
		return &depSched{canRun: canRun, fifo: ready, queued: queued{hooks: h}}
	case Affinity:
		if o.Score == nil {
			panic("sched: Affinity policy requires a ScoreFn")
		}
		return &affSched{places: places, score: o.Score, steal: o.Steal, canRun: canRun,
			local: make([]queue, places), global: ready, queued: queued{hooks: h}}
	case HEFT:
		if o.Cost == nil || o.Cost.Estimates == nil {
			panic("sched: HEFT policy requires a CostModel with Estimates")
		}
		return &heftSched{places: places, cost: o.Cost.Estimates, rank: o.Cost.Rank,
			steal: o.Steal, canRun: canRun, local: make([]queue, places), global: ready,
			backlog: make([]time.Duration, places), queued: queued{hooks: h}}
	default:
		panic(fmt.Sprintf("sched: unknown policy %q", policy))
	}
}

// entry wraps a task so it can sit in several queues; the first Pop that
// reaches it takes it (queued.take), clearing t: a nil t marks a consumed
// entry in every queue still holding it, and a consumed entry pins no
// task. seq is its submission number in a fifo. compute and rank are only
// set by the heft policy (the place's backlog accounting and priority
// order).
type entry struct {
	t       *task.Task
	seq     uint32
	compute time.Duration
	rank    time.Duration
}

// queue holds entries in arrival order. head skips the consumed prefix,
// whose slots are cleared as it passes them; push moves the live rest
// down instead of growing the array once the prefix is half of it, so a
// steady stream of pushes and front pops reuses one array.
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

// live counts the entries not yet taken.
func (q *queue) live() int {
	n := 0
	for _, e := range q.q[q.head:] {
		if e.t != nil {
			n++
		}
	}
	return n
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

// queued is what every policy shares: the count of live tasks, kept by
// Submit, the pops that take and Drain, and mirrored to Hooks.Queued; and
// the slab entries come from.
type queued struct {
	n     int
	hooks Hooks
	slab  []entry
}

func (q *queued) add(d int) {
	q.n += d
	q.hooks.Queued.Add(int64(d))
}

func (q *queued) Len() int { return q.n }

// newEntry counts t in and wraps it in an entry from a bulk-allocated
// slab, so a ready task costs no allocation of its own.
func (q *queued) newEntry(t *task.Task) *entry {
	if len(q.slab) == 0 {
		q.slab = make([]entry, 256)
	}
	e := &q.slab[0]
	q.slab = q.slab[1:]
	e.t = t
	q.add(1)
	return e
}

// take counts e out and returns its task, clearing it (see entry).
func (q *queued) take(e *entry) *task.Task {
	t := e.t
	e.t = nil
	q.add(-1)
	return t
}

// drain takes every live entry of q, in queue order, and empties it.
func (q *queued) drain(l *queue) []*task.Task {
	var out []*task.Task
	for _, e := range l.q[l.head:] {
		if e.t != nil {
			out = append(out, q.take(e))
		}
	}
	*l = queue{}
	return out
}

// bfSched: plain FIFO.
type bfSched struct {
	canRun CanRunFn
	fifo   fifo
	queued
}

func (s *bfSched) Submit(t *task.Task, releasedBy int) {
	s.fifo.push(s.newEntry(t))
}

func (s *bfSched) Pop(place int) *task.Task {
	if e := s.fifo.pop(place, func(t *task.Task) bool { return s.canRun(place, t) }); e != nil {
		return s.take(e)
	}
	return nil
}

func (s *bfSched) Drain(place int) []*task.Task { return nil }

// depSched: FIFO plus per-place successor lists, indexed by place.
type depSched struct {
	canRun   CanRunFn
	fifo     fifo
	perPlace []queue
	queued
}

func (s *depSched) Submit(t *task.Task, releasedBy int) {
	e := s.newEntry(t)
	s.fifo.push(e)
	if releasedBy >= 0 {
		// The place that released this successor should pick it up next, to
		// reuse the data the predecessor just produced.
		for len(s.perPlace) <= releasedBy {
			s.perPlace = append(s.perPlace, queue{})
		}
		s.perPlace[releasedBy].push(e)
	}
}

func (s *depSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	var e *entry
	if place >= 0 && place < len(s.perPlace) {
		e = s.perPlace[place].back(pred) // most recently released first
	}
	if e == nil {
		e = s.fifo.pop(place, pred)
	}
	if e == nil {
		return nil
	}
	return s.take(e)
}

// Drain forgets the dead place's successor hints; the entries stay live in
// the shared FIFO, where any surviving place pops them.
func (s *depSched) Drain(place int) []*task.Task {
	if place >= 0 && place < len(s.perPlace) {
		s.perPlace[place] = queue{}
	}
	return nil
}

// affSched: per-place queues + global queue + stealing.
type affSched struct {
	places int
	score  ScoreFn
	steal  bool
	canRun CanRunFn
	local  []queue
	global fifo
	queued
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
	e := s.newEntry(t)
	if p := bestPlace(s.score(t)); p >= 0 && p < s.places && s.canRun(p, t) {
		s.local[p].push(e)
		return
	}
	s.global.push(e)
}

func (s *affSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	if place >= 0 && place < s.places {
		if e := s.local[place].front(pred); e != nil {
			return s.take(e)
		}
	}
	if e := s.global.pop(place, pred); e != nil {
		return s.take(e)
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
		if n := s.local[i].live(); n > max {
			victim, max = i, n
		}
	}
	if victim < 0 {
		return nil
	}
	e := s.local[victim].back(pred)
	if e == nil {
		return nil
	}
	s.hooks.Steals.Inc()
	return s.take(e)
}

// Drain takes every live task queued locally at place, in queue order.
// Affinity is the one policy whose tasks can strand on a dead place.
func (s *affSched) Drain(place int) []*task.Task {
	if place < 0 || place >= s.places {
		return nil
	}
	return s.drain(&s.local[place])
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
	local []queue
	// global holds tasks no place can run right now (e.g. every
	// compatible place is dead); any place that becomes able pops them.
	global fifo
	// backlog[p] is the projected compute time queued at place p: the sum
	// of the Compute estimates of its queued entries. Pops and steals pay
	// it down. Execution time while a task runs is not tracked — the
	// backlog is a queue-pressure signal, not a clock.
	backlog []time.Duration
	queued
}

func (s *heftSched) Submit(t *task.Task, releasedBy int) {
	est := s.cost(t)
	if len(est) != s.places {
		panic(fmt.Sprintf("sched: CostFn returned %d estimates for %d places", len(est), s.places))
	}
	e := s.newEntry(t)
	if s.rank != nil {
		e.rank = s.rank(t)
	}
	best := -1
	var bestEFT time.Duration
	for p := 0; p < s.places; p++ {
		if est[p].incompatible() || !s.canRun(p, t) {
			continue
		}
		eft := s.backlog[p] + est[p].Transfer + est[p].Compute
		if best < 0 || eft < bestEFT {
			best, bestEFT = p, eft // ties keep the lowest place id
		}
	}
	if best < 0 {
		s.global.push(e)
		return
	}
	e.compute = est[best].Compute
	s.backlog[best] += e.compute
	s.insertByRank(best, e)
}

// insertByRank places e into local[p] before the first live entry of
// strictly lower rank, so the queue stays rank-descending and stable.
func (s *heftSched) insertByRank(p int, e *entry) {
	q := &s.local[p]
	live := q.q[q.head:]
	at := len(live)
	for i, o := range live {
		if o.t != nil && o.rank < e.rank {
			at = i
			break
		}
	}
	q.push(e)
	live = q.q[q.head:]
	copy(live[at+1:], live[at:len(live)-1])
	live[at] = e
}

func (s *heftSched) Pop(place int) *task.Task {
	pred := func(t *task.Task) bool { return s.canRun(place, t) }
	if place >= 0 && place < s.places {
		if e := s.local[place].front(pred); e != nil {
			s.backlog[place] -= e.compute
			return s.take(e)
		}
	}
	if e := s.global.pop(place, pred); e != nil {
		return s.take(e)
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
		if i == place || s.local[i].live() == 0 {
			continue
		}
		if s.backlog[i] > max {
			victim, max = i, s.backlog[i]
		}
	}
	if victim < 0 {
		return nil
	}
	e := s.local[victim].back(pred)
	if e == nil {
		return nil
	}
	s.hooks.Steals.Inc()
	s.backlog[victim] -= e.compute
	return s.take(e)
}

// Drain takes every live task bound to place and zeroes its backlog; the
// fault-tolerant runtime resubmits them, re-estimating against the
// surviving places.
func (s *heftSched) Drain(place int) []*task.Task {
	if place < 0 || place >= s.places {
		return nil
	}
	s.backlog[place] = 0
	return s.drain(&s.local[place])
}
