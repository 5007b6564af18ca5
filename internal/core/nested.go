package core

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// LocalCtx is the handle a task's Spawner uses to create nested tasks on
// the node where the parent executes. Nested tasks form their own dynamic
// extent: dependences connect siblings only (as the paper's hierarchical
// graph requires), they are scheduled by the node's local scheduler, and
// the parent does not complete until they drain. A rebuild's replay of the
// parent gets one with no graph, on which each nested task replays at once.
type LocalCtx struct {
	n     *nodeRT
	p     *sim.Proc
	graph *depgraph.Graph // nil: a replay (nodeRT.replay)
	idle  *sim.Event      // made each time a task enters the empty extent
}

// Node returns the node id the nested tasks will run on.
func (lc *LocalCtx) Node() int { return lc.n.id }

// Submit creates a nested task from def. Its dependences are resolved
// against the other nested tasks of the same parent.
func (lc *LocalCtx) Submit(def TaskDef) *task.Task {
	rt := lc.n.rt
	t := new(task.Task)
	def.fill(t, rt.newTaskID())
	if lc.graph == nil {
		lc.n.replay(lc.p, t)
		return t
	}
	if t.Device == task.CUDA && len(lc.n.devs) == 0 {
		panic(fmt.Sprintf("core: nested CUDA task on GPU-less node %d", lc.n.id))
	}
	// A malformed clause set never enters the graph; it is surfaced
	// through ompss.Run.
	if err := lc.graph.Submit(t); err != nil {
		rt.fail(err)
	} else if lc.graph.Pending() == 1 {
		lc.idle = sim.NewEvent(rt.e)
	}
	return t
}

// Wait blocks the spawner until every nested task has finished.
func (lc *LocalCtx) Wait() {
	if lc.graph != nil && lc.graph.Pending() > 0 {
		lc.idle.Wait(lc.p)
	}
}

// runSpawner executes t's Spawner with a fresh local extent and waits for
// the nested tasks it created.
func (n *nodeRT) runSpawner(p *sim.Proc, t *task.Task) {

	lc := &LocalCtx{n: n, p: p}
	lc.graph = depgraph.New(func(ready *task.Task) {
		n.enqueueLocal(ready, func(_ *sim.Proc, ft *task.Task, _ int) {
			lc.graph.Finished(ft)
			if lc.graph.Pending() == 0 {
				lc.idle.Trigger()
			}
		})
	})
	if tr := n.rt.cfg.Trace; tr != nil {
		// Nested extents contribute their sibling arcs to the same trace.
		lc.graph.OnArc = func(pred, succ task.ID) { tr.Edge(int64(pred), int64(succ)) }
	}
	t.Spawner()(lc)
	lc.Wait()
}
