package core

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// Active-message handler names (Section III.D.1: all control information
// and data transfers are implemented with active messages).
const (
	amRunTask  = "runTask"  // master -> slave: execute a task
	amTaskDone = "taskDone" // slave -> master: task completed
	amData     = "data"     // data payload arriving at a node's host memory
	amAck      = "ack"      // slave -> master: a routed transfer arrived
	amPush     = "push"     // master -> slave j: send a region to node k (0: the master)
	amShutdown = "shutdown" // master -> slave: terminate workers
)

// taskDescBytes models the wire size of a task descriptor.
func taskDescBytes(t *task.Task) uint64 {
	return 256 + 48*uint64(len(t.Deps)+len(t.ExtraCopies()))
}

// clusterState lives on the Runtime (of a machine with more than one node)
// but only the master uses it.
type clusterState struct {
	outstanding []int  // per node: dispatched but unfinished tasks
	busy        int    // the sum of outstanding
	closed      []bool // per node: dead or at 1+Presend outstanding, as last tracked
	open        []int  // per comm thread: the nodes it serves that are not closed
	onTrack     func() // if set, runs after every track (tests)
	xferSeq     int64
	xfers       map[int64]*plan // the plans whose transfer awaits its acknowledgement
	// scores and estimates are the per-node slices clusterScore and
	// clusterEstimates return, reused as the images reuse theirs.
	scores    []uint64
	estimates []sched.Estimate
}

// registerMasterHandlers installs the master image's protocol endpoints.
// Must run before the master endpoint starts.
func (rt *Runtime) registerMasterHandlers() {
	m := rt.master()
	m.ep.RegisterNonBlocking(amTaskDone, func(am gasnet.AM) {
		t, node := am.Args.Task, am.From
		if rt.recovers() {
			// Only the dispatch of record may retire the task: a completion
			// from a node that was declared dead (and whose copy of the task
			// was requeued) is stale and must be ignored.
			if d, in := rt.ft.inflight[t.ID]; !in || d.node != node {
				return
			}
			delete(rt.ft.inflight, t.ID)
		}
		for _, c := range t.Copies() {
			if c.Access.Writes() {
				m.produced(c.Region, memspace.Host(node))
				if rt.recovers() {
					// Log the producer so the version can be rebuilt if
					// every copy dies with its holders.
					m.dir.RecordProducer(c.Region, t)
				}
			}
		}
		rt.tasksRemote++
		rt.retire(t, node)
	})
	m.ep.RegisterNonBlocking(amData, func(am gasnet.AM) {
		// Data pulled back to the master host: the producer still holds
		// the current version, the master host gains a copy.
		m.dir.AddHolder(am.Region, memspace.Host(0))
		rt.ackXfer(am.Args.ID)
	})
	m.ep.RegisterNonBlocking(amAck, func(am gasnet.AM) {
		rt.ackXfer(am.Args.ID)
	})
}

// spawnCommThread starts the communication thread(s). They realize the
// paper's hierarchy: at cluster level every node — the master image
// included — is a single execution place fed round-robin. With
// Config.CommThreads > 1 the nodes are striped across several threads,
// the extension the paper's design explicitly allows.
func (rt *Runtime) spawnCommThread() {
	threads := rt.cfg.CommThreads
	for i := 0; i < threads; i++ {
		i := i
		rt.e.Go(fmt.Sprintf("commThread%d", i), func(p *sim.Proc) { rt.commLoop(p, i, threads) })
	}
}

// commLoop polls the ready pool for every node round-robin — the remote
// slaves and the master's own image alike — keeping up to 1+Presend tasks
// outstanding per node (Section III.D.1). Tasks for remote nodes are
// staged and shipped by dispatch chains; tasks for the master node enter
// its local scheduler.
func (rt *Runtime) commLoop(p *sim.Proc, thread, threads int) {
	m, cl := rt.master(), rt.cl
	// This thread serves the nodes whose index is ≡ thread (mod threads).
	var mine []int
	for k := 0; k < len(rt.nodes); k++ {
		if k%threads == thread {
			mine = append(mine, k)
		}
	}
	if len(mine) == 0 {
		return
	}
	cl.open[thread] = len(mine) // all alive and idle
	cursor := 0
	// The idle wait's take is the Pop half of a sweep: the next node in
	// round-robin order with room and a task for it, if there can be one.
	var t *task.Task
	var k, tried int
	retireLocal := func(_ *sim.Proc, done *task.Task, _ int) { rt.retire(done, 0) }
	wait := m.idleWait(p, func() bool {
		for tried = 0; tried < len(mine) && cl.open[thread] > 0 && rt.clSch.Len() > 0; tried++ {
			k = mine[(cursor+tried)%len(mine)]
			if cl.closed[k] {
				continue
			}
			if t = rt.clSch.Pop(k); t != nil {
				return true
			}
		}
		return false
	}, func() bool { return m.stopping && cl.busy == 0 })
	for wait() {
		rt.track(k, 1)
		if rt.recovers() && k > 0 {
			// Track the dispatch before its chain starts, so a death can
			// never catch the task in an untracked window.
			rt.ft.inflight[t.ID] = dispatched{t, k}
		}
		if k == 0 {
			m.enqueueLocal(t, retireLocal)
		} else {
			if cl.outstanding[k] > 1 {
				rt.presends++
			}
			rt.dispatch(t, k)
		}
		// Resume the next poll at the following node: one dispatch per
		// sweep keeps the distribution round-robin.
		cursor = (cursor + tried + 1) % len(mine)
		p.Yield()
	}
}

// retire completes t, which ran on node, at the master.
func (rt *Runtime) retire(t *task.Task, node int) {
	rt.track(node, -1)
	rt.finishTask(t, node)
	rt.master().signalWork()
}

// track moves node k's outstanding dispatches by delta and brings its
// closed flag, dead or at the limit, and its comm thread's open count up
// to date: at a dispatch, a retire and k's death.
func (rt *Runtime) track(k, delta int) {
	cl := rt.cl
	cl.outstanding[k] += delta
	cl.busy += delta
	if closed := rt.nodeIsDead(k) || cl.outstanding[k] > rt.cfg.Presend; closed != cl.closed[k] {
		cl.closed[k] = closed
		if closed {
			cl.open[k%len(cl.open)]--
		} else {
			cl.open[k%len(cl.open)]++
		}
	}
	if cl.onTrack != nil {
		cl.onTrack()
	}
}

// clusterScore is the cluster-level affinity: bytes of t's data resident
// on each node (nodeHeldBytes), writes weighted double.
func (rt *Runtime) clusterScore(t *task.Task) []uint64 {
	scores := rt.cl.scores
	clear(scores)
	for _, c := range t.Copies() {
		w := uint64(1)
		if c.Access.Writes() {
			w = 2
		}
		for k := range rt.nodes {
			scores[k] += w * rt.nodeHeldBytes(c.Region, k)
		}
	}
	return scores
}

// clusterCanRun filters device compatibility at node granularity.
// Reduction tasks run on the master node only: cross-node reduction
// combining is not implemented (the paper lists reductions entirely as
// future work).
func (rt *Runtime) clusterCanRun(place int, t *task.Task) bool {
	if ft := rt.ft; ft != nil {
		if ft.dead[place] {
			return false
		}
		// Hold back tasks touching a region whose lost version is being
		// rebuilt: run against the master's stale base, or clobbering it
		// with a newer write the replay would undo, they corrupt it.
		for _, c := range t.Copies() {
			if ft.fence(c.Region) != nil {
				return false
			}
		}
	}
	for _, d := range t.Deps {
		if d.Access == task.Red && place != 0 {
			return false
		}
	}
	return rt.clusterAccepts(place, t.Device)
}

// clusterAccepts is the static half of clusterCanRun: CUDA tasks need a node
// with GPUs.
func (rt *Runtime) clusterAccepts(place int, d task.Device) bool {
	return d != task.CUDA || len(rt.nodes[place].devs) > 0
}

// Outcomes of pickSource other than a source node.
const (
	srcLost = -1 // no live holder: gone until a rebuild restores the version
	srcHeld = -2 // the destination is itself a holder: nothing to move
)

// pickSource chooses the node one fragment moves from on its way to node
// dst, given the fragment's holders: the master when it holds a copy and the
// mode is master-routed, else the first live slave, else the master. Dead
// holders are skipped and dst is never returned, so a transfer can never be
// addressed to its own destination.
func pickSource(holders []memspace.Location, dst int, s2s bool, dead func(int) bool) int {
	src := srcLost
	for _, h := range holders {
		switch {
		case dead(h.Node):
		case h.Node == dst:
			return srcHeld
		case src == srcLost, s2s && src == 0, !s2s && h.Node == 0:
			src = h.Node
		}
	}
	return src
}

// report is a slave's completion report under fault tolerance, sent in
// the slot after the worker's.
type report struct {
	n    *nodeRT
	t    *task.Task
	send func()
}

func (rp *report) sendFn() {
	n, t := rp.n, rp.t
	rp.n, rp.t = nil, nil
	n.rt.chains.reports.put(rp)
	n.ep.AMShortFunc(0, amTaskDone, gasnet.Args{Task: t}, nil)
}

// registerSlaveHandlers installs the slave image's protocol (Section
// III.D.1: slaves wait for requests and submit them to the local
// scheduler).
func (n *nodeRT) registerSlaveHandlers() {
	report := func(cp *sim.Proc, done *task.Task, _ int) {
		if n.rt.ft != nil {
			// A reliable send lasts the ack round-trip (and any retries):
			// it goes out as events, so the worker can take its next task.
			rp := n.rt.chains.reports.get()
			rp.n, rp.t = n, done
			n.rt.e.After(0, rp.send)
			return
		}
		cp.Await("taskDone", func(sent func(bool)) { n.ep.AMShortFunc(0, amTaskDone, gasnet.Args{Task: done}, sent) })
	}
	n.ep.RegisterNonBlocking(amRunTask, func(am gasnet.AM) {
		n.enqueueLocal(am.Args.Task, report)
	})
	if n.rt.ft != nil {
		n.ep.RegisterNonBlocking(amPing, func(am gasnet.AM) {
			// Reply to whichever manager node probed.
			n.ep.AMProbeFunc(am.From, amPong, gasnet.Args{}, nil)
		})
	}
	n.ep.RegisterNonBlocking(amData, func(am gasnet.AM) {
		// Fresh data arriving at this node's host: it becomes the node's
		// current local version, invalidating stale GPU copies.
		n.produced(am.Region, memspace.Host(n.id))
		n.ep.AMShortFunc(0, amAck, am.Args, nil) // the same Args: the id to acknowledge
	})
	n.ep.RegisterNonBlocking(amPush, func(am gasnet.AM) {
		pu := n.rt.chains.pushes.get()
		pu.n, pu.args = n, am.Args
		n.fetchToHost(am.Args.Region, true, pu.fetched)
	})
	n.ep.RegisterNonBlocking(amShutdown, func(gasnet.AM) {
		n.stopping = true
		n.signalWork()
	})
}
