// Package depgraph maintains the task dependency DAG of the runtime
// (Section III.C.1 of the paper): arcs are created for read-after-write,
// write-after-read and write-after-write conflicts between sibling tasks,
// based on their input/output/inout clauses.
//
// The paper's implementation restriction that regions must exactly
// coincide or be disjoint is lifted here: conflicts are tracked per
// fragment of an interval map, so partially overlapping regions produce
// ordinary dependence arcs on the shared bytes. A program whose regions
// never partially overlap keeps one fragment per region and builds the
// exact same arcs, in the same order, as the exact-match model.
//
// The fragment index is a sharded interval map (memspace.FragMap), so a
// split costs O(log n + shardMax) instead of the O(n) memmove a single
// sorted slice paid — the difference between 10^4 and 10^6 task graphs —
// and each clause costs at most one search of it, batched or not: none
// when its region is already one fragment, the exact-match steady state.
//
// One Graph instance covers one dynamic extent (the children of one parent
// task); this is what makes the hierarchical, distributable implementation
// possible.
package depgraph

import (
	"fmt"
	"slices"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

type node struct {
	t *task.Task
	// waitCount and done share a word, which pays for first: a node is 48
	// bytes, and a million-task graph holds every node at once.
	waitCount int32
	done      bool
	// successors starts as first[:0], so the first arc (a chain's only
	// one) is stored inline and costs no allocation.
	successors []*node
	first      [1]*node
}

// hasSuccessor reports whether succ is already wired after this node. All
// arcs into succ are made inside Submit(succ), and nothing else appends to
// a successor list meanwhile: an arc to succ can only be the last one.
func (n *node) hasSuccessor(succ *node) bool {
	return len(n.successors) > 0 && n.successors[len(n.successors)-1] == succ
}

// fragData holds the conflict bookkeeping for one fragment of the address
// space: the last writer, the readers since that write, and the reducers
// of the last reduction phase since. While the phase is pending, redRegion
// is the exact region it reduces over (reductions only commute over
// identical regions) and readers are those of the value before it, whom
// every reducer waits for; its first reader ends it (zero redRegion), and
// every reader after waits for every reducer.
type fragData struct {
	lastWriter *node
	readers    []*node
	reducers   []*node
	redRegion  memspace.Region
}

// cloneFragData is the FragMap split hook: both halves of a split fragment
// carry the same conflict history, with the reader/reducer slices copied
// so later appends on one half don't leak into the other.
func cloneFragData(v fragData) fragData {
	return fragData{
		lastWriter: v.lastWriter,
		readers:    slices.Clone(v.readers),
		reducers:   slices.Clone(v.reducers),
		redRegion:  v.redRegion,
	}
}

// Graph is the dependency DAG for one dynamic extent. Per-task nodes live
// in the tasks' DepNode slots rather than a map: at a million tasks the
// three map operations per task (insert, lookup, delete) were a measurable
// share of submission cost.
type Graph struct {
	onReady func(*task.Task)
	frags   *memspace.FragMap[fragData]

	submitted int
	finished  int

	// covbuf is the reusable fragment buffer of the submit hot path (one
	// Graph is serial, so a single buffer suffices); slab bulk-allocates
	// nodes so million-task graphs don't pay one small allocation per task.
	covbuf []*memspace.Frag[fragData]
	slab   []node

	// OnArc, when non-nil, observes every arc actually created (after
	// dedup and finished-pred filtering), in creation order. The runtime
	// uses it to mirror the realized DAG into the trace recorder.
	OnArc func(pred, succ task.ID)
}

// New returns an empty graph. onReady is invoked (synchronously) whenever a
// task's dependencies are all satisfied — at Submit time for tasks with no
// pending predecessors, or during Finished for released successors.
func New(onReady func(*task.Task)) *Graph {
	return &Graph{
		onReady: onReady,
		frags:   memspace.NewFragMap(cloneFragData, nil),
	}
}

// Fragments returns the current fragment count (observability and tests).
func (g *Graph) Fragments() int { return g.frags.Len() }

// newNode hands out nodes from a bulk-allocated slab.
func (g *Graph) newNode(t *task.Task) *node {
	if len(g.slab) == 0 {
		g.slab = make([]node, 256)
	}
	n := &g.slab[0]
	g.slab = g.slab[1:]
	n.t = t
	n.successors = n.first[:0]
	return n
}

// Normalize validates and canonicalizes the dependence clauses of one
// task: invalid (empty) regions are dropped, duplicate clauses on the
// exact same region merge (input + output behaves as inout), and the two
// unsupported shapes are reported as errors rather than panics — a region
// listed both as a reduction and as another access, and a reduction
// region partially overlapping any other clause of the task. Callers
// surface the error to the user program through ompss.Run.
//
// The result is read-only: when nothing is dropped or merged (the common
// case) it is deps itself, not a copy.
func Normalize(deps []task.Dep) ([]task.Dep, error) {
	out := deps
	if !canonical(deps) {
		out = nil
		for _, d := range deps {
			if !d.Region.Valid() {
				continue
			}
			i := slices.IndexFunc(out, func(o task.Dep) bool { return o.Region == d.Region })
			if i < 0 {
				out = append(out, d)
				continue
			}
			if out[i].Access != d.Access {
				if out[i].Access == task.Red || d.Access == task.Red {
					return nil, fmt.Errorf("depgraph: region %v mixes reduction with other accesses in one task", d.Region)
				}
				out[i].Access = task.InOut
			}
		}
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[i].Access != task.Red && out[j].Access != task.Red {
				continue
			}
			if out[i].Region.Overlaps(out[j].Region) {
				return nil, fmt.Errorf("depgraph: reduction region %v partially overlaps %v in one task", out[i].Region, out[j].Region)
			}
		}
	}
	return out, nil
}

// canonical reports whether Normalize has nothing to drop or merge: every
// region is valid and no two clauses name the same one.
func canonical(deps []task.Dep) bool {
	for _, d := range deps {
		if !d.Region.Valid() {
			return false
		}
	}
	return task.DistinctRegions(deps)
}

// addArc makes succ wait for pred unless pred already finished or the arc
// exists.
func (g *Graph) addArc(pred, succ *node) {
	if pred == nil || pred.done || pred == succ {
		return
	}
	if pred.hasSuccessor(succ) {
		return
	}
	pred.successors = append(pred.successors, succ)
	succ.waitCount++
	if g.OnArc != nil {
		g.OnArc(pred.t.ID, succ.t.ID)
	}
}

// Submit adds t to the graph, wiring RAW/WAR/WAW arcs against earlier
// siblings per overlapped fragment. If t has no pending predecessors,
// onReady fires before Submit returns. Malformed clause sets (see
// Normalize) are reported as an error before the graph is touched;
// duplicate submission of a task ID is an internal invariant violation and
// still panics.
func (g *Graph) Submit(t *task.Task) error {
	deps, err := Normalize(t.Deps)
	if err != nil {
		return fmt.Errorf("%v: %w", t, err)
	}
	if t.DepNode != nil {
		panic(fmt.Sprintf("depgraph: duplicate submit of %v", t))
	}
	// Cross-task guard, checked before any mutation: bytes under a pending
	// reduction may only be accessed by another reduction over the exact
	// same region — reductions only commute over identical accumulators.
	for _, d := range deps {
		if d.Access != task.Red {
			continue
		}
		for _, f := range g.frags.Overlapping(d.Region) {
			if f.V.redRegion.Valid() && f.V.redRegion != d.Region {
				return fmt.Errorf("depgraph: %v: reduction over %v partially overlaps pending reduction over %v", t, d.Region, f.V.redRegion)
			}
		}
	}
	n := g.newNode(t)
	t.DepNode = n
	g.submitted++
	for _, d := range deps {
		g.covbuf = g.frags.CoverInto(d.Region, g.covbuf)
		for _, f := range g.covbuf {
			fs := &f.V
			pending := fs.redRegion.Valid()
			if d.Access == task.Red {
				// Reductions wait for the previous writer and any readers
				// of the old value, but not for each other.
				g.addArc(fs.lastWriter, n)
				for _, rd := range fs.readers {
					g.addArc(rd, n)
				}
				if !pending {
					fs.reducers = nil
				}
				fs.reducers = append(fs.reducers, n)
				fs.redRegion = d.Region
				continue
			}
			g.addArc(fs.lastWriter, n) // read- or write-after-write
			if pending || d.Access == task.In {
				for _, rx := range fs.reducers {
					g.addArc(rx, n) // after a reduction: combine must be possible
				}
			}
			if d.Access.Writes() && !pending {
				for _, rd := range fs.readers {
					g.addArc(rd, n) // write-after-read
				}
			}
			// Update fragment bookkeeping after arcs are in place.
			if d.Access.Writes() {
				*fs = fragData{lastWriter: n}
				continue
			}
			if pending {
				fs.readers, fs.redRegion = nil, memspace.Region{}
			}
			fs.readers = append(fs.readers, n)
		}
	}
	if n.waitCount == 0 {
		g.onReady(t)
	}
	return nil
}

// SubmitBatch adds the tasks in order: it is Submit on each in turn, the
// same arcs in the same order with the same onReady firing points. The
// fragment index needs no batch-wide preparation — a cover is one search
// at most, and pre-splitting at a batch's region bounds measured slower
// than not (EXPERIMENTS.md "FragMap: one search per cover").
//
// Returns the number of tasks submitted. On error, tasks[0:accepted] are
// in the graph (their onReady may have fired) and the rest are untouched;
// the error names the first failing task.
func (g *Graph) SubmitBatch(ts []*task.Task) (accepted int, err error) {
	for i, t := range ts {
		if err := g.Submit(t); err != nil {
			return i, err
		}
	}
	return len(ts), nil
}

// Finished marks t complete and releases successors whose last pending
// predecessor it was; each release fires onReady in arc-creation order.
func (g *Graph) Finished(t *task.Task) {
	n, ok := t.DepNode.(*node)
	if !ok {
		panic(fmt.Sprintf("depgraph: Finished for unknown %v", t))
	}
	if n.done {
		panic(fmt.Sprintf("depgraph: double Finished for %v", t))
	}
	n.done = true
	g.finished++
	for _, s := range n.successors {
		s.waitCount--
		if s.waitCount == 0 {
			g.onReady(s.t)
		}
	}
	n.successors, n.first[0] = nil, nil
	t.DepNode = nil
}

// Successors returns the tasks currently waiting on t, in arc order. Used
// by the "dependencies" scheduling policy to run a successor of a just-
// finished task. Returns nil for unknown tasks.
func (g *Graph) Successors(t *task.Task) []*task.Task {
	n, ok := t.DepNode.(*node)
	if !ok {
		return nil
	}
	out := make([]*task.Task, 0, len(n.successors))
	for _, s := range n.successors {
		out = append(out, s.t)
	}
	return out
}

// Pending returns the number of submitted-but-unfinished tasks.
func (g *Graph) Pending() int { return g.submitted - g.finished }

// LastWriter returns an unfinished task that will produce part of the
// current version of r, or nil when every byte of r is settled. Used by
// taskwait-on, which loops until no writer remains.
func (g *Graph) LastWriter(r memspace.Region) *task.Task {
	for _, f := range g.frags.Overlapping(r) {
		if f.V.lastWriter != nil && !f.V.lastWriter.done {
			return f.V.lastWriter.t
		}
	}
	return nil
}
