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
	amFetch    = "fetch"    // master -> slave: send a region to the master
	amPush     = "push"     // master -> slave j: send a region to slave k
	amShutdown = "shutdown" // master -> slave: terminate workers
)

// taskDescBytes models the wire size of a task descriptor.
func taskDescBytes(t *task.Task) uint64 {
	return 256 + 48*uint64(len(t.Deps)+len(t.ExtraCopies))
}

type dataArgs struct {
	XferID int64 // transfer to acknowledge at the master; 0 = none
}

type pushArgs struct {
	Region memspace.Region
	Dest   int
	XferID int64
}

type fetchArgs struct {
	Region memspace.Region
	XferID int64
}

type doneArgs struct {
	Task *task.Task
	Node int
}

// clusterState lives on the Runtime but only the master uses it.
type clusterState struct {
	outstanding []int // per node: dispatched but unfinished tasks
	xferSeq     int64
	xferEvents  map[int64]*sim.Event
	netInflight map[netKey]*sim.Event
}

type netKey struct {
	region memspace.Region
	node   int
}

func (rt *Runtime) cluster() *clusterState {
	if rt.cl == nil {
		rt.cl = &clusterState{
			outstanding: make([]int, len(rt.nodes)),
			xferEvents:  make(map[int64]*sim.Event),
			netInflight: make(map[netKey]*sim.Event),
		}
	}
	return rt.cl
}

// registerMasterHandlers installs the master image's protocol endpoints.
// Must run before the master endpoint starts.
func (rt *Runtime) registerMasterHandlers() {
	m := rt.master()
	cl := rt.cluster()

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
		cl.outstanding[node]--
		rt.met.remoteRun.Inc()
		if ft := rt.ft; ft != nil {
			if done, rec := ft.recoveryDone[t.ID]; rec {
				// A re-executed producer: the graph retired it long ago;
				// just advance the rebuild.
				done.Trigger()
				m.signalWork()
				return
			}
		}
		rt.finishTask(t, node)
		m.signalWork()
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
	m := rt.master()
	cl := rt.cluster()
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
				m.enqueueLocal(t, func(cp *sim.Proc, done *task.Task, place int) {
					cl.outstanding[0]--
					if ft := rt.ft; ft != nil {
						if ev, rec := ft.recoveryDone[done.ID]; rec {
							// Re-executed producer: already retired once.
							ev.Trigger()
							m.signalWork()
							return
						}
					}
					rt.finishTask(done, 0)
					m.signalWork()
				})
			} else {
				if cl.outstanding[k] > 1 {
					rt.met.presends.Inc()
				}
				rt.e.Go(rt.nodes[k].dispatchName, func(dp *sim.Proc) { rt.dispatchRemote(dp, t, k) })
			}
			// Resume the next poll at the following node: one dispatch per
			// sweep keeps the distribution round-robin.
			cursor = (indexOf(mine, k) + 1) % len(mine)
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

// indexOf returns the position of v in s (v is always present).
func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return 0
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
	m := rt.master()
	if rt.nodeIsDead(k) {
		return // nodeDead already requeued this task
	}
	copies := t.Copies()
	staged := true
	if rt.cfg.NonBlockingCache {
		var wait []*sim.Event
		for _, c := range copies {
			if !c.Access.Reads() {
				continue
			}
			done := sim.NewEvent(rt.e)
			rt.e.Go("stageNet", func(sp *sim.Proc) {
				if !rt.stageToNode(sp, c.Region, k) {
					staged = false
				}
				done.Trigger()
			})
			wait = append(wait, done)
		}
		for _, ev := range wait {
			ev.Wait(p)
		}
	} else {
		for _, c := range copies {
			if c.Access.Reads() {
				if !rt.stageToNode(p, c.Region, k) {
					staged = false
					break
				}
			}
		}
	}
	if !staged || rt.nodeIsDead(k) {
		// Staging only fails when k itself is unreachable; declaring it
		// dead (idempotently) requeues every task bound to it, this one
		// included.
		rt.nodeDead(k, "stage")
		return
	}
	if !m.ep.AMMedium(p, k, amRunTask, t, taskDescBytes(t)) {
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
	cl := rt.cluster()
	key := netKey{region: r, node: k}
	if ev, busy := cl.netInflight[key]; busy {
		ev.Wait(p)
		// Without fault tolerance the transfer we piggybacked on always
		// succeeded; with it, it may have failed — re-evaluate.
		return true, rt.ft == nil
	}
	// The consumer needs every known byte of r at node k. Missing returns
	// the directory fragments not yet held there: one entry equal to r under
	// exact-match regions, several when writers fragmented the range.
	// With the manager layer armed this is a blocking query answered by
	// r's owning shards.
	rt.mgrChargeQuery(p, 0, r)
	missing := m.dir.Missing(r, memspace.Host(k))
	if len(missing) == 0 {
		return true, true
	}
	if rt.nodeIsDead(k) {
		return false, true
	}
	ev := sim.NewEvent(rt.e)
	cl.netInflight[key] = ev
	defer func() {
		delete(cl.netInflight, key)
		ev.Trigger()
	}()

	if len(missing) > 1 || missing[0] != r {
		m.met.fragAssemblies.Inc()
	}
	for _, frag := range missing {
		if fok, fsettled := rt.stageFragToNode(p, frag, k); !fok {
			// settled=false: a source died mid-assembly — the outer loop
			// re-evaluates what is still missing after any rebuild.
			// settled=true: k itself never acknowledged; the caller declares
			// it dead.
			return false, fsettled
		}
	}
	return true, true
}

// stageFragToNode ships one directory fragment to node k, choosing the
// route the whole-region planner used before fragmentation: a slave holder
// directly when SlaveToSlave is on, else via the master host. ok=false
// with settled=false means a fault disturbed the transfer and the attempt
// should be re-planned; with settled=true the destination is unreachable.
func (rt *Runtime) stageFragToNode(p *sim.Proc, frag memspace.Region, k int) (ok, settled bool) {
	m := rt.master()
	cl := rt.cluster()
	holders := m.dir.Holders(frag)
	if len(holders) == 0 {
		// The fragment's holders died after Missing was computed.
		return false, false
	}
	src := holders[0]
	if rt.cfg.SlaveToSlave {
		// Prefer a slave source: direct slave-to-slave transfers keep the
		// master's TX free for control traffic and its own data.
		for _, h := range holders {
			if h.Node != 0 && h.IsHost() && !rt.nodeIsDead(h.Node) {
				src = h
				break
			}
		}
	} else {
		// Master-routed mode: prefer the master host when it has a copy.
		for _, h := range holders {
			if h == memspace.Host(0) {
				src = h
				break
			}
		}
	}
	if src.Node == 0 || (src.Node != k && rt.nodeIsDead(src.Node)) {
		// From the master image (possibly via a D2H flush of a master GPU;
		// fetchToHost re-routes internally if a remote holder dies).
		m.fetchToHost(p, frag)
		return rt.sendMasterToNode(p, frag, k), true
	}
	// Current version lives on slave src.Node.
	if rt.cfg.SlaveToSlave {
		id := rt.newXfer(src.Node, k)
		ack := cl.xferEvents[id]
		start := p.Now()
		// The push request originates from the owning shard's host — the
		// manager brokering the transfer's metadata. The data still flows
		// slave-to-slave and the ack still lands on the master (the
		// dispatch coordinator).
		broker := rt.mgrBrokerEndpoint(frag)
		if !broker.ep.AMShort(p, src.Node, amPush, pushArgs{Region: frag, Dest: k, XferID: id}) {
			rt.ackXfer(id)
			rt.xferFailedTake(id)
			rt.nodeDead(src.Node, "push")
			return false, false
		}
		ack.Wait(p)
		if rt.xferFailedTake(id) {
			return false, false
		}
		rt.cfg.Trace.Record(trace.Span{Kind: trace.NetSend, Name: "s->s",
			Node: src.Node, Dev: -1, Start: start, End: p.Now(),
			Bytes: frag.Size, Region: frag.Addr, Peer: k})
		rt.met.bytesStoS.Add(int64(frag.Size))
		m.dir.AddHolder(frag, memspace.Host(k))
		return true, true
	}
	// Master-routed: pull to the master host, then send on.
	m.fetchToHost(p, frag)
	return rt.sendMasterToNode(p, frag, k), true
}

// sendMasterToNode ships r from the master host store to node k and waits
// for the acknowledgement so ordering with the subsequent runTask holds
// even under retries. Returns false when k never acknowledged (it died or
// exhausted the retry ladder).
func (rt *Runtime) sendMasterToNode(p *sim.Proc, r memspace.Region, k int) bool {
	m := rt.master()
	cl := rt.cluster()
	id := rt.newXfer(0, k)
	ack := cl.xferEvents[id]
	start := p.Now()
	if !m.ep.AMLong(p, k, amData, dataArgs{XferID: id}, r) {
		rt.ackXfer(id)
		rt.xferFailedTake(id)
		return false
	}
	ack.Wait(p)
	if rt.xferFailedTake(id) {
		return false
	}
	rt.cfg.Trace.Record(trace.Span{Kind: trace.NetSend, Name: "m->s",
		Node: 0, Dev: -1, Start: start, End: p.Now(),
		Bytes: r.Size, Region: r.Addr, Peer: k})
	rt.met.bytesMtoS.Add(int64(r.Size))
	m.dir.AddHolder(r, memspace.Host(k))
	return true
}

// newXfer allocates a transfer id with a pending ack event; src and dst
// are the nodes moving the data, recorded so a peer's death can fail the
// transfer and unblock its waiter.
func (rt *Runtime) newXfer(src, dst int) int64 {
	cl := rt.cluster()
	cl.xferSeq++
	cl.xferEvents[cl.xferSeq] = sim.NewEvent(rt.e)
	if rt.ft != nil {
		rt.ft.xferPeers[cl.xferSeq] = [2]int{src, dst}
	}
	return cl.xferSeq
}

// ackXfer is called at the master when a transfer acknowledgement arrives.
// id 0 (no ack requested) is ignored.
func (rt *Runtime) ackXfer(id int64) {
	if id == 0 {
		return
	}
	cl := rt.cluster()
	if ev, ok := cl.xferEvents[id]; ok {
		ev.Trigger()
		delete(cl.xferEvents, id)
		if rt.ft != nil {
			delete(rt.ft.xferPeers, id)
		}
	}
}

// pullToMaster fetches r (held by slave node j) into the master host.
// Called with the master's host inflight key held. Returns false when j
// died before the data arrived; the caller re-routes.
func (rt *Runtime) pullToMaster(p *sim.Proc, r memspace.Region, j int) bool {
	m := rt.master()
	if rt.nodeIsDead(j) {
		return false
	}
	id := rt.newXfer(0, j)
	ack := rt.cluster().xferEvents[id]
	start := p.Now()
	if !m.ep.AMShort(p, j, amFetch, fetchArgs{Region: r, XferID: id}) {
		rt.ackXfer(id)
		rt.xferFailedTake(id)
		rt.nodeDead(j, "fetch")
		return false
	}
	ack.Wait(p) // the amData handler adds Host(0) as holder
	if rt.xferFailedTake(id) {
		return false
	}
	// The pull is a network transfer like its m->s and s->s siblings and
	// gets the same span; it was the one send path missing from the trace.
	rt.cfg.Trace.Record(trace.Span{Kind: trace.NetSend, Name: "s->m",
		Node: j, Dev: -1, Start: start, End: p.Now(),
		Bytes: r.Size, Region: r.Addr, Peer: 0})
	rt.met.bytesMtoS.Add(int64(r.Size))
	return true
}

// registerSlaveHandlers installs the slave image's protocol (Section
// III.D.1: slaves wait for requests and submit them to the local
// scheduler).
func (n *nodeRT) registerSlaveHandlers() {
	n.ep.RegisterNonBlocking(amRunTask, func(am gasnet.AM) {
		t := am.Args.(*task.Task)
		n.enqueueLocal(t, func(cp *sim.Proc, done *task.Task, place int) {
			if n.rt.ft != nil {
				// Reliable sends block for the ack round-trip (and any
				// retries); detach so the worker can take its next task.
				n.rt.e.Go("taskDone:"+done.Name, func(dp *sim.Proc) {
					n.ep.AMShort(dp, 0, amTaskDone, doneArgs{Task: done, Node: n.id})
				})
				return
			}
			n.ep.AMShort(cp, 0, amTaskDone, doneArgs{Task: done, Node: n.id})
		})
	})
	if n.rt.ft != nil {
		n.ep.Register(amPing, func(p *sim.Proc, am gasnet.AM) {
			// Reply to whichever manager node probed.
			n.ep.AMProbe(p, am.From, amPong, nil)
		})
	}
	n.ep.Register(amData, func(p *sim.Proc, am gasnet.AM) {
		// Fresh data arriving at this node's host: it becomes the node's
		// current local version, invalidating stale GPU copies.
		n.produced(am.Region, memspace.Host(n.id))
		if id := am.Args.(dataArgs).XferID; id != 0 {
			n.ep.AMShort(p, 0, amAck, dataArgs{XferID: id})
		}
	})
	n.ep.Register(amFetch, func(p *sim.Proc, am gasnet.AM) {
		args := am.Args.(fetchArgs)
		n.fetchToHost(p, args.Region) // D2H first if only a GPU holds it
		n.ep.AMLong(p, 0, amData, dataArgs{XferID: args.XferID}, args.Region)
	})
	n.ep.Register(amPush, func(p *sim.Proc, am gasnet.AM) {
		args := am.Args.(pushArgs)
		n.fetchToHost(p, args.Region)
		n.ep.AMLong(p, args.Dest, amData, dataArgs{XferID: args.XferID}, args.Region)
	})
	n.ep.RegisterNonBlocking(amShutdown, func(gasnet.AM) {
		n.stopping = true
		n.signalWork()
	})
}
