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

// hasSuccessor reports whether succ is already wired after pred. All arcs
// into succ are made inside Submit(succ), and nothing else appends to a
// successor list meanwhile: an arc to succ can only be the last one.
func hasSuccessor(pred, succ *task.Task) bool {
	return len(pred.NodeSuccs) > 0 && pred.NodeSuccs[len(pred.NodeSuccs)-1] == succ
}

// fragData holds the conflict bookkeeping for one fragment of the address
// space: the last writer, the readers since that write, and the reducers
// of the last reduction phase since. While the phase is pending, redRegion
// is the exact region it reduces over (reductions only commute over
// identical regions) and readers are those of the value before it, whom
// every reducer waits for; its first reader ends it (zero redRegion), and
// every reader after waits for every reducer.
type fragData struct {
	lastWriter *task.Task
	readers    []*task.Task
	reducers   []*task.Task
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

// Graph is the dependency DAG for one dynamic extent. Each task is its own
// node (the task.Task Node fields) rather than an entry of a map or a
// record beside it: at a million tasks the three map operations per task
// (insert, lookup, delete) were a measurable share of submission cost, and
// a 48 B node beside the task costs more than the 16 B its fields add.
type Graph struct {
	onReady func(*task.Task)
	frags   *memspace.FragMap[fragData]

	submitted int
	finished  int

	// covbuf is the reusable fragment buffer of the submit hot path (one
	// Graph is serial, so a single buffer suffices).
	covbuf []*memspace.Frag[fragData]

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
		frags:   memspace.NewFragMap(cloneFragData),
	}
}

// normalize validates and canonicalizes the dependence clauses of one
// task: invalid (empty) regions are dropped, duplicate clauses on the
// exact same region merge (input + output behaves as inout), and the two
// unsupported shapes are reported as errors rather than panics — a region
// listed both as a reduction and as another access, and a reduction
// region partially overlapping any other clause of the task. Submit
// returns the error, which reaches the user program through ompss.Run.
//
// The result is read-only: when nothing is dropped or merged (the common
// case) it is deps itself, not a copy.
func normalize(deps []task.Dep) ([]task.Dep, error) {
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

// canonical reports whether normalize has nothing to drop or merge: every
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
func (g *Graph) addArc(pred, succ *task.Task) {
	if pred == nil || pred.NodeDone || pred == succ {
		return
	}
	if hasSuccessor(pred, succ) {
		return
	}
	pred.NodeSuccs = append(pred.NodeSuccs, succ)
	succ.NodeWait++
	if g.OnArc != nil {
		g.OnArc(pred.ID, succ.ID)
	}
}

// Submit adds t to the graph, wiring RAW/WAR/WAW arcs against earlier
// siblings per overlapped fragment. If t has no pending predecessors,
// onReady fires before Submit returns. Malformed clause sets (see
// normalize) are reported as an error before the graph is touched;
// duplicate submission of a task ID is an internal invariant violation and
// still panics.
func (g *Graph) Submit(t *task.Task) error {
	deps, err := normalize(t.Deps)
	if err != nil {
		return fmt.Errorf("%v: %w", t, err)
	}
	if t.NodeSuccs != nil || t.NodeDone {
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
	t.NodeSuccs = t.NodeFirst[:0]
	g.submitted++
	for _, d := range deps {
		g.covbuf = g.frags.CoverInto(d.Region, g.covbuf)
		for _, f := range g.covbuf {
			fs := &f.V
			pending := fs.redRegion.Valid()
			if d.Access == task.Red {
				// Reductions wait for the previous writer and any readers
				// of the old value, but not for each other.
				g.addArc(fs.lastWriter, t)
				for _, rd := range fs.readers {
					g.addArc(rd, t)
				}
				if !pending {
					fs.reducers = nil
				}
				fs.reducers = append(fs.reducers, t)
				fs.redRegion = d.Region
				continue
			}
			g.addArc(fs.lastWriter, t) // read- or write-after-write
			if pending || d.Access == task.In {
				for _, rx := range fs.reducers {
					g.addArc(rx, t) // after a reduction: combine must be possible
				}
			}
			if d.Access.Writes() && !pending {
				for _, rd := range fs.readers {
					g.addArc(rd, t) // write-after-read
				}
			}
			// Update fragment bookkeeping after arcs are in place.
			if d.Access.Writes() {
				*fs = fragData{lastWriter: t}
				continue
			}
			if pending {
				fs.readers, fs.redRegion = nil, memspace.Region{}
			}
			fs.readers = append(fs.readers, t)
		}
	}
	if t.NodeWait == 0 {
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
	if t.NodeDone {
		panic(fmt.Sprintf("depgraph: double Finished for %v", t))
	}
	if t.NodeSuccs == nil {
		panic(fmt.Sprintf("depgraph: Finished for unknown %v", t))
	}
	t.NodeDone = true
	g.finished++
	for _, s := range t.NodeSuccs {
		s.NodeWait--
		if s.NodeWait == 0 {
			g.onReady(s)
		}
	}
	t.NodeSuccs, t.NodeFirst[0] = nil, nil
}

// Successors returns a copy of the tasks currently waiting on t, in arc
// order: the HEFT policy's upward rank walks them. Returns nil for a task
// that is not in the graph or has finished.
func (g *Graph) Successors(t *task.Task) []*task.Task {
	return slices.Clone(t.NodeSuccs)
}

// Pending returns the number of submitted-but-unfinished tasks.
func (g *Graph) Pending() int { return g.submitted - g.finished }

// LastWriter returns an unfinished task that will produce part of the
// current version of r, or nil when every byte of r is settled. A byte's
// current version is produced by its last writer and by the reducers of
// the last reduction phase since, which a reader ends for ordering but
// whose partials the bytes still need. Used by taskwait-on, which loops
// until no producer remains.
func (g *Graph) LastWriter(r memspace.Region) *task.Task {
	for _, f := range g.frags.Overlapping(r) {
		if w := f.V.lastWriter; w != nil && !w.NodeDone {
			return w
		}
		for _, rx := range f.V.reducers {
			if !rx.NodeDone {
				return rx
			}
		}
	}
	return nil
}
