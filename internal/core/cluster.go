package core

import (
	"fmt"

	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
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
	return 256 + 48*uint64(len(t.Deps)+len(t.ExtraCopies))
}

type dataArgs struct {
	XferID int64 // transfer to acknowledge at the master
}

type pushArgs struct {
	Region memspace.Region
	Dest   int
	XferID int64
}

type doneArgs struct {
	Task *task.Task
	Node int
}

// clusterState lives on the Runtime (of a machine with more than one node)
// but only the master uses it.
type clusterState struct {
	outstanding []int // per node: dispatched but unfinished tasks
	xferSeq     int64
	xferEvents  map[int64]*sim.Event
}

// registerMasterHandlers installs the master image's protocol endpoints.
// Must run before the master endpoint starts.
func (rt *Runtime) registerMasterHandlers() {
	m := rt.master()
	m.ep.RegisterNonBlocking(amTaskDone, func(am gasnet.AM) {
		args := am.Args.(doneArgs)
		t, node := args.Task, args.Node
		if ft := rt.ft; ft != nil {
			// Only the dispatch of record may retire the task: a completion
			// from a node that was declared dead (and whose copy of the task
			// was requeued) is stale and must be ignored.
			if n2, in := ft.inflightNode[t.ID]; !in || n2 != node {
				return
			}
			delete(ft.inflightNode, t.ID)
			delete(ft.inflightTask, t.ID)
		}
		for _, c := range t.Copies() {
			if c.Access.Writes() {
				m.produced(c.Region, memspace.Host(node))
				if rt.ft != nil {
					// Log the producer so the version can be rebuilt if
					// every copy dies with its holders.
					m.dir.RecordProducer(c.Region, t)
				}
			}
		}
		rt.met.remoteRun.Inc()
		rt.retire(t, node)
	})
	m.ep.RegisterNonBlocking(amData, func(am gasnet.AM) {
		// Data pulled back to the master host: the producer still holds
		// the current version, the master host gains a copy.
		m.dir.AddHolder(am.Region, memspace.Host(0))
		rt.ackXfer(am.Args.(dataArgs).XferID)
	})
	m.ep.RegisterNonBlocking(amAck, func(am gasnet.AM) {
		rt.ackXfer(am.Args.(dataArgs).XferID)
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
// staged and shipped by spawned dispatch processes; tasks for the master
// node enter its local scheduler.
func (rt *Runtime) commLoop(p *sim.Proc, thread, threads int) {
	m, cl := rt.master(), rt.cl
	limit := 1 + rt.cfg.Presend
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
	cursor := 0
	for {
		ev := m.workSignal
		progress := false
		for tried := 0; tried < len(mine); tried++ {
			k := mine[(cursor+tried)%len(mine)]
			if rt.nodeIsDead(k) {
				continue
			}
			if cl.outstanding[k] >= limit {
				continue
			}
			t := rt.clSch.Pop(k)
			if t == nil {
				continue
			}
			cl.outstanding[k]++
			if ft := rt.ft; ft != nil && k > 0 {
				// Track the dispatch before its process exists, so a death
				// can never catch the task in an untracked window.
				ft.inflightNode[t.ID] = k
				ft.inflightTask[t.ID] = t
			}
			progress = true
			if k == 0 {
				m.enqueueLocal(t, func(_ *sim.Proc, done *task.Task, _ int) { rt.retire(done, 0) })
			} else {
				if cl.outstanding[k] > 1 {
					rt.met.presends.Inc()
				}
				rt.e.Go(rt.nodes[k].dispatchName, func(dp *sim.Proc) { rt.dispatchRemote(dp, t, k) })
			}
			// Resume the next poll at the following node: one dispatch per
			// sweep keeps the distribution round-robin.
			cursor = (cursor + tried + 1) % len(mine)
			break
		}
		if progress {
			p.Yield()
			continue
		}
		if m.stopping && cl.total() == 0 {
			return
		}
		ev.Wait(p)
	}
}

// retire completes t, which ran on node, at the master. A re-executed
// producer only advances its rebuild: the graph retired it long ago.
func (rt *Runtime) retire(t *task.Task, node int) {
	rt.cl.outstanding[node]--
	if rt.isRecoveryTask(t) {
		rt.ft.recoveryDone[t.ID].Trigger()
	} else {
		rt.finishTask(t, node)
	}
	rt.master().signalWork()
}

func (cl *clusterState) total() int {
	n := 0
	for _, o := range cl.outstanding {
		n += o
	}
	return n
}

// clusterScore is the cluster-level affinity: bytes of t's data resident
// on each node (the master's host and GPUs together count as node 0).
func (rt *Runtime) clusterScore(t *task.Task) []uint64 {
	m := rt.master()
	scores := make([]uint64, len(rt.nodes))
	for _, c := range t.Copies() {
		w := uint64(1)
		if c.Access.Writes() {
			w = 2
		}
		if hb := m.dir.HeldBytes(c.Region, memspace.Host(0)); hb > 0 {
			scores[0] += w * hb
		} else {
			for g := range m.devs {
				if hb := m.dir.HeldBytes(c.Region, memspace.GPU(0, g)); hb > 0 {
					scores[0] += w * hb
					break
				}
			}
		}
		for k := 1; k < len(rt.nodes); k++ {
			// Dead nodes score zero: PurgeNode removed their holdings, the
			// check is belt-and-braces for the declaration window.
			if !rt.nodeIsDead(k) {
				scores[k] += w * m.dir.HeldBytes(c.Region, memspace.Host(k))
			}
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
		// rebuilt — running them against the master's stale base (or
		// clobbering it with a newer write the replay would then undo)
		// would corrupt the recovery. The replayed producers themselves
		// are exempt: their re-runs are the rebuild.
		if len(ft.restoreEvents) > 0 {
			if _, rec := ft.recoveryDone[t.ID]; !rec {
				for _, c := range t.Copies() {
					if ft.fenced(c.Region) {
						return false
					}
				}
			}
		}
	}
	for _, d := range t.Deps {
		if d.Access == task.Red && place != 0 {
			return false
		}
	}
	if t.Device == task.CUDA {
		return len(rt.nodes[place].devs) > 0
	}
	return true
}

// dispatchRemote stages a task's input data at node k and sends the run
// request. Staging overlaps the execution of other remote tasks because
// each dispatch runs in its own process.
func (rt *Runtime) dispatchRemote(p *sim.Proc, t *task.Task, k int) {
	if rt.nodeIsDead(k) {
		return // nodeDead already requeued this task
	}
	var reads []memspace.Region
	for _, c := range t.Copies() {
		if c.Access.Reads() {
			reads = append(reads, c.Region)
		}
	}
	staged := rt.moveEach(p, "stageNet", rt.cfg.NonBlockingCache, reads,
		func(sp *sim.Proc, r memspace.Region) bool { return rt.stageToNode(sp, r, k) })
	if !staged || rt.nodeIsDead(k) {
		// Staging only fails when k itself is unreachable; declaring it
		// dead (idempotently) requeues every task bound to it, this one
		// included.
		rt.nodeDead(k, "stage")
		return
	}
	if !rt.master().ep.AMMedium(p, k, amRunTask, t, taskDescBytes(t)) {
		rt.nodeDead(k, "runTask")
	}
}

// stageToNode makes node k hold the current version of r. Routes are:
// master host -> k directly; a master GPU -> master host -> k; another
// slave j -> k directly when SlaveToSlave is enabled, else j -> master -> k.
// Returns false only when k itself is unreachable; a failed source is
// declared dead and the transfer re-routed around it.
func (rt *Runtime) stageToNode(p *sim.Proc, r memspace.Region, k int) bool {
	for {
		ok, settled := rt.stageToNodeOnce(p, r, k)
		if settled {
			return ok
		}
		if rt.nodeIsDead(k) {
			return false
		}
		// The attempt was disturbed by a fault (source died, or we
		// piggybacked on a transfer that failed): wait out any rebuild of
		// r, then re-evaluate from the directory.
		rt.waitRestore(p, r)
	}
}

func (rt *Runtime) stageToNodeOnce(p *sim.Proc, r memspace.Region, k int) (ok, settled bool) {
	m := rt.master()
	dst := memspace.Host(k)
	if m.joinInflight(p, r, dst) {
		// Without fault tolerance the transfer we piggybacked on always
		// succeeded; with it, it may have failed — re-evaluate.
		return true, rt.ft == nil
	}
	// The consumer needs every known byte of r at node k. Missing returns
	// the directory fragments not yet held there: one entry equal to r under
	// exact-match regions, several when writers fragmented the range.
	// With the manager layer armed this is a blocking query answered by
	// r's owning shards — which is why joining and leading are two steps.
	rt.mgrChargeQuery(p, 0, r)
	missing := m.dir.Missing(r, dst)
	if len(missing) == 0 {
		return true, true
	}
	if rt.nodeIsDead(k) {
		return false, true
	}
	defer m.leadInflight(r, dst)()
	if len(missing) > 1 || missing[0] != r {
		m.met.fragAssemblies.Inc()
	}
	for _, frag := range missing {
		// The fragment list is fixed for the attempt; the source of each is
		// chosen when its turn comes, from the holders it has by then.
		src := pickSource(m.dir.Holders(frag), k, rt.cfg.SlaveToSlave, rt.nodeIsDead)
		switch {
		case src == srcHeld:
			continue // an overlapping stage landed it at k meanwhile
		case src == srcLost:
			// A source died mid-assembly — the outer loop re-evaluates what
			// is still missing after any rebuild.
			return false, false
		case src == 0 || !rt.cfg.SlaveToSlave:
			// Via the master host: after a D2H flush of a master GPU or,
			// master-routed, an s->m pull (fetchToHost re-routes internally
			// if a remote holder dies).
			m.fetchToHost(p, frag)
			src = 0
		}
		if !rt.xfer(p, frag, src, k) {
			// From the master, k itself never acknowledged and the caller
			// declares it dead; from a slave, re-plan.
			return false, src == 0
		}
	}
	return true, true
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

// xfer moves frag from node src's host memory to node dst's and records
// Host(dst) as a holder — the one inter-node transfer, whichever of the
// routes m->s, s->s or s->m it is. The master sends its own data; a slave is
// asked to push (by the manager brokering frag's metadata when the data
// stays between slaves). The caller blocks until dst has acknowledged to the
// master, so ordering with a subsequent runTask holds even under retries.
// False means a peer died or exhausted the retry ladder first; this is the
// one place an unreachable source is declared dead.
func (rt *Runtime) xfer(p *sim.Proc, frag memspace.Region, src, dst int) bool {
	m := rt.master()
	id := rt.newXfer(src, dst)
	ack := rt.cl.xferEvents[id]
	start := p.Now()
	push := pushArgs{Region: frag, Dest: dst, XferID: id}
	name, bytes, sent := "m->s", rt.met.bytesMtoS, false
	switch {
	case src == 0:
		sent = m.ep.AMLong(p, dst, amData, dataArgs{XferID: id}, frag)
	case dst == 0:
		name = "s->m"
		sent = m.ep.AMShort(p, src, amPush, push)
	default:
		name, bytes = "s->s", rt.met.bytesStoS
		sent = rt.mgrBrokerEndpoint(frag).ep.AMShort(p, src, amPush, push)
	}
	if !sent {
		rt.ackXfer(id)
		rt.xferFailedTake(id)
		rt.nodeDead(src, "push")
		return false
	}
	ack.Wait(p)
	if rt.xferFailedTake(id) {
		return false
	}
	rt.cfg.Trace.Record(trace.Span{Kind: trace.NetSend, Name: name,
		Node: src, Dev: -1, Start: start, End: p.Now(),
		Bytes: frag.Size, Region: frag.Addr, Peer: dst})
	bytes.Add(int64(frag.Size))
	if dst != 0 { // the master's data handler recorded Host(0) on arrival
		m.dir.AddHolder(frag, memspace.Host(dst))
	}
	return true
}

// newXfer allocates a transfer id with a pending ack event; src and dst
// are the nodes moving the data, recorded so a peer's death can fail the
// transfer and unblock its waiter.
func (rt *Runtime) newXfer(src, dst int) int64 {
	cl := rt.cl
	cl.xferSeq++
	cl.xferEvents[cl.xferSeq] = sim.NewEvent(rt.e)
	if rt.ft != nil {
		rt.ft.xferPeers[cl.xferSeq] = [2]int{src, dst}
	}
	return cl.xferSeq
}

// ackXfer is called at the master when a transfer acknowledgement arrives.
func (rt *Runtime) ackXfer(id int64) {
	if ev, ok := rt.cl.xferEvents[id]; ok {
		ev.Trigger()
		delete(rt.cl.xferEvents, id)
		if rt.ft != nil {
			delete(rt.ft.xferPeers, id)
		}
	}
}

// registerSlaveHandlers installs the slave image's protocol (Section
// III.D.1: slaves wait for requests and submit them to the local
// scheduler).
func (n *nodeRT) registerSlaveHandlers() {
	n.ep.RegisterNonBlocking(amRunTask, func(am gasnet.AM) {
		t := am.Args.(*task.Task)
		n.enqueueLocal(t, func(cp *sim.Proc, done *task.Task, place int) {
			if n.rt.ft != nil {
				// A reliable send lasts the ack round-trip (and any retries):
				// it goes out as events, so the worker can take its next task.
				n.rt.e.After(0, func() {
					n.ep.AMShortFunc(0, amTaskDone, doneArgs{Task: done, Node: n.id})
				})
				return
			}
			n.ep.AMShort(cp, 0, amTaskDone, doneArgs{Task: done, Node: n.id})
		})
	})
	if n.rt.ft != nil {
		n.ep.RegisterNonBlocking(amPing, func(am gasnet.AM) {
			// Reply to whichever manager node probed.
			n.ep.AMProbeFunc(am.From, amPong, nil)
		})
	}
	n.ep.RegisterNonBlocking(amData, func(am gasnet.AM) {
		// Fresh data arriving at this node's host: it becomes the node's
		// current local version, invalidating stale GPU copies.
		n.produced(am.Region, memspace.Host(n.id))
		n.ep.AMShortFunc(0, amAck, am.Args) // the same dataArgs: the id to acknowledge
	})
	n.ep.Register(amPush, func(p *sim.Proc, am gasnet.AM) {
		args := am.Args.(pushArgs)
		n.fetchToHost(p, args.Region) // D2H first if only a GPU holds it
		n.ep.AMLong(p, args.Dest, amData, dataArgs{XferID: args.XferID}, args.Region)
	})
	n.ep.RegisterNonBlocking(amShutdown, func(gasnet.AM) {
		n.stopping = true
		n.signalWork()
	})
}
