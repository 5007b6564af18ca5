package core

import (
	"fmt"
	"sort"

	"github.com/bsc-repro/ompss/internal/detmap"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// Heartbeat active messages (master -> slave probe, slave -> master reply).
const (
	amPing = "ping"
	amPong = "pong"
)

// ftState is the master-side fault-tolerance machinery, created only when
// Config.Faults is set. With it absent (rt.ft == nil) every code path in
// the runtime behaves bit-identically to a build without the subsystem.
type ftState struct {
	inj *faults.Injector

	ackTimeout    sim.Duration
	maxAttempts   int
	hbInterval    sim.Duration
	missThreshold int

	dead       []bool
	pongSince  []bool // a pong arrived since the last probe round
	missStreak []int  // consecutive unanswered probes

	// inflightNode/inflightTask track tasks dispatched to remote nodes but
	// not yet retired, so a dead node's work can be requeued. Entries are
	// registered synchronously at pop time in the comm loop — before the
	// dispatch process even starts — so a death can never catch a task in
	// an untracked window.
	inflightNode map[task.ID]int
	inflightTask map[task.ID]*task.Task

	// xferPeers records the two endpoints of every pending transfer ack;
	// xferFailed marks transfers aborted by a peer's death so their waiters
	// can distinguish failure from completion.
	xferPeers  map[int64][2]int
	xferFailed map[int64]bool

	// recoveryDone maps re-executed task ids to their completion events.
	// Entries are never removed: a later recovery sharing a task must see
	// it already ran (re-running a non-idempotent producer twice would
	// corrupt its output), and completion paths use membership to divert
	// recovery tasks away from the dependency graph, which already retired
	// them once.
	recoveryDone map[task.ID]*sim.Event

	// restoreEvents fences regions whose lost current version is being
	// rebuilt, keyed by directory fragment. Normal tasks touching any
	// overlapping region are held back by clusterCanRun until the rebuild
	// completes.
	restoreEvents map[memspace.Region]*sim.Event

	haveRecovered bool
	recoverStart  sim.Time
	recoverEnd    sim.Time
}

// armFaultTolerance builds the injector and protocol state from
// Config.Faults and wires them into the fabric and every endpoint. Called
// from New after the nodes exist, before any endpoint starts.
func (rt *Runtime) armFaultTolerance() {
	plan := *rt.cfg.Faults
	for _, c := range plan.Crashes {
		if c.Node == 0 {
			panic("core: fault plan crashes node 0; the master is the recovery coordinator and cannot fail")
		}
	}
	lat := rt.cfg.Cluster.Net.Latency
	ft := &ftState{
		inj:           faults.NewInjector(plan),
		ackTimeout:    plan.AckTimeoutOr(lat),
		maxAttempts:   plan.MaxAttemptsOr(),
		hbInterval:    plan.HeartbeatIntervalOr(),
		missThreshold: plan.MissThresholdOr(),
		dead:          make([]bool, len(rt.nodes)),
		pongSince:     make([]bool, len(rt.nodes)),
		missStreak:    make([]int, len(rt.nodes)),
		inflightNode:  make(map[task.ID]int),
		inflightTask:  make(map[task.ID]*task.Task),
		xferPeers:     make(map[int64][2]int),
		xferFailed:    make(map[int64]bool),
		recoveryDone:  make(map[task.ID]*sim.Event),
		restoreEvents: make(map[memspace.Region]*sim.Event),
	}
	rt.ft = ft
	rt.fabric.SetHook(ft.inj)
	if len(rt.nodes) < 2 {
		return // no peers: injection only, nothing to harden
	}
	rt.master().dir.TrackProducers(memspace.Host(0))
	for _, n := range rt.nodes {
		n := n
		n.ep.EnableReliability(gasnet.Reliability{
			AckTimeout:  ft.ackTimeout,
			MaxAttempts: ft.maxAttempts,
			OnRetry: func(to int, handler string, attempt int) {
				rt.met.retries.Inc()
				now := rt.e.Now()
				rt.cfg.Trace.Record(trace.Span{Kind: trace.Retry,
					Name: fmt.Sprintf("%s->node%d#%d", handler, to, attempt),
					Node: n.id, Dev: -1, Start: now, End: now})
			},
		})
		// The filter models the death notification the master would
		// broadcast: once a node is declared dead its stale traffic is
		// acknowledged (silencing retransmissions) but never dispatched,
		// so it cannot corrupt cluster state.
		n.ep.SetInboundFilter(func(from int) bool { return !ft.dead[from] })
		// Any node can host a manager shard and run its slice of the
		// failure detector, so every node can receive pongs.
		n.ep.RegisterNonBlocking(amPong, func(am gasnet.AM) {
			ft.pongSince[am.From] = true
			ft.missStreak[am.From] = 0
		})
	}
}

// nodeIsDead reports whether node k has been declared failed.
func (rt *Runtime) nodeIsDead(k int) bool {
	return rt.ft != nil && rt.ft.dead[k]
}

// isRecoveryTask reports whether t is being re-executed to rebuild lost
// data (such tasks bypass the restore fences their own re-run satisfies).
func (rt *Runtime) isRecoveryTask(t *task.Task) bool {
	if rt.ft == nil {
		return false
	}
	_, rec := rt.ft.recoveryDone[t.ID]
	return rec
}

// spawnHeartbeat starts the failure detector: one probe loop per manager
// node, each probing only the slaves it monitors. Every interval a loop
// checks the previous round's replies, then probes each of its live slaves
// with a best-effort control datagram; missThreshold consecutive
// unanswered probes declare the slave dead. Slave k is monitored by the
// live manager at position k mod (live managers), except that no node
// monitors itself — those slaves fall to the master; with one shard the
// master is the only manager and monitors everyone. When a manager dies,
// its loop exits and the deterministic assignment re-routes its slaves to
// the survivors at the next round; the per-slave reply/streak state is
// shared, so a handover never loses an accumulated miss streak.
func (rt *Runtime) spawnHeartbeat() {
	ft := rt.ft
	mgrs := rt.mgr.dmap.ManagerNodes() // includes node 0 (shard 0's host)
	liveMon := func(k int) int {
		live := make([]int, 0, len(mgrs))
		for _, mk := range mgrs {
			if !ft.dead[mk] {
				live = append(live, mk)
			}
		}
		mon := live[k%len(live)]
		if mon == k {
			mon = 0
		}
		return mon
	}
	for _, mk := range mgrs {
		mk := mk
		rt.e.Go(fmt.Sprintf("heartbeat:%d", mk), func(p *sim.Proc) {
			me := rt.nodes[mk]
			awaiting := make([]bool, len(rt.nodes))
			for {
				p.Sleep(ft.hbInterval)
				if rt.master().stopping {
					return
				}
				// A crashed manager's detector loop stops executing with the
				// node (physical death, from the injector's ground truth —
				// not the cluster-level ft.dead verdict, which lags by the
				// detection window): its probes would blackhole and convict
				// every slave it monitors within the same window its own
				// death is being detected.
				if mk != 0 && (ft.dead[mk] || ft.inj.NodeCrashed(mk, p.Now())) {
					return
				}
				for k := 1; k < len(rt.nodes); k++ {
					if ft.dead[k] {
						continue
					}
					if liveMon(k) != mk {
						awaiting[k] = false
						continue
					}
					if awaiting[k] {
						if ft.pongSince[k] {
							ft.missStreak[k] = 0
						} else {
							ft.missStreak[k]++
							rt.met.hbMisses.Inc()
							now := p.Now()
							rt.cfg.Trace.Record(trace.Span{Kind: trace.Heartbeat,
								Name: fmt.Sprintf("miss:node%d#%d", k, ft.missStreak[k]),
								Node: mk, Dev: -1, Start: now, End: now})
							if ft.missStreak[k] >= ft.missThreshold {
								rt.nodeDead(k, "heartbeat")
								continue
							}
						}
					}
					ft.pongSince[k] = false
					awaiting[k] = true
					me.ep.AMProbe(p, k, amPing, nil)
				}
			}
		})
	}
}

// nodeDead declares slave k failed and recovers: pending transfers
// involving k are failed so their waiters re-route, k's queued and
// in-flight tasks are resubmitted to the survivors, and region versions
// whose only copies died with k are rebuilt by re-running their producer
// chains. Idempotent; the master (node 0) cannot be declared dead.
func (rt *Runtime) nodeDead(k int, reason string) {
	ft := rt.ft
	if ft == nil || k <= 0 || k >= len(rt.nodes) || ft.dead[k] {
		return
	}
	ft.dead[k] = true
	rt.met.deadNodes.Inc()
	m := rt.master()
	now := rt.e.Now()
	if !ft.haveRecovered {
		ft.haveRecovered = true
		ft.recoverStart = now
	}
	if ft.recoverEnd < now {
		ft.recoverEnd = now
	}
	rt.cfg.Trace.Record(trace.Span{Kind: trace.Recovery,
		Name: fmt.Sprintf("dead:node%d:%s", k, reason),
		Node: 0, Dev: -1, Start: now, End: now})
	if m.stopping {
		return // shutting down: results already flushed, nothing to recover
	}
	// Fail every pending transfer with k as a peer so its waiter unblocks
	// and re-routes (sorted for a deterministic wake order).
	var ids []int64
	for _, id := range detmap.Keys(ft.xferPeers) {
		if peers := ft.xferPeers[id]; peers[0] == k || peers[1] == k {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		ft.xferFailed[id] = true
		rt.ackXfer(id)
	}
	// Requeue k's queued and in-flight tasks on the survivors.
	requeue := rt.clSch.Drain(k)
	var lostIDs []task.ID
	for _, id := range detmap.Keys(ft.inflightNode) {
		if ft.inflightNode[id] == k {
			lostIDs = append(lostIDs, id)
		}
	}
	for _, id := range lostIDs {
		requeue = append(requeue, ft.inflightTask[id])
		delete(ft.inflightNode, id)
		delete(ft.inflightTask, id)
		rt.met.reexecs.Inc()
	}
	for _, t := range requeue {
		rt.clSch.Submit(t, -1)
	}
	rt.cl.outstanding[k] = 0
	// If k hosted manager shards, rehost them on the master before the
	// data recovery below: the rebuilt directory slices must be owned by
	// a live manager while the producer chains replay.
	rt.mgrFailover(now, k)
	rt.recoverLost(k)
	m.signalWork()
}

// recoverLost rebuilds the region versions whose only live copies died
// with node k. The coherence directory kept, per region, the chain of
// producer tasks since the master's base copy was last current; the union
// of the lost regions' chains is replayed sequentially in ascending task
// id — a valid topological order, since a task can only depend on
// earlier-submitted tasks. Each region's fence lifts as soon as its
// newest producer has re-run.
func (rt *Runtime) recoverLost(k int) {
	ft, m := rt.ft, rt.master()
	lost := m.dir.PurgeNode(k)
	if len(lost) == 0 {
		return
	}
	detect := rt.e.Now()
	type rebuild struct {
		r      memspace.Region
		lastID task.ID
		ev     *sim.Event
	}
	var (
		chain    []*task.Task
		inChain  = map[task.ID]bool{}
		rebuilds []rebuild
		bytes    uint64
	)
	for _, r := range lost {
		if _, busy := ft.restoreEvents[r]; busy {
			continue // an earlier recovery is already rebuilding it
		}
		prods := m.dir.Producers(r)
		m.dir.Rehome(r)
		if len(prods) == 0 {
			continue // the master's base copy is already the current version
		}
		var last task.ID
		for _, t := range prods {
			if !inChain[t.ID] {
				inChain[t.ID] = true
				chain = append(chain, t)
			}
			if t.ID > last {
				last = t.ID
			}
		}
		ev := sim.NewEvent(rt.e)
		ft.restoreEvents[r] = ev
		rebuilds = append(rebuilds, rebuild{r: r, lastID: last, ev: ev})
		bytes += r.Size
	}
	if len(chain) == 0 {
		return
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].ID < chain[j].ID })
	rt.e.Go(fmt.Sprintf("recover:node%d", k), func(p *sim.Proc) {
		rebuildSpan := rt.cfg.Trace.Begin(trace.Recovery,
			fmt.Sprintf("rebuild:node%d", k), 0, -1, detect)
		for _, t := range chain {
			done, running := ft.recoveryDone[t.ID]
			if !running {
				done = sim.NewEvent(rt.e)
				ft.recoveryDone[t.ID] = done
				rt.met.reexecs.Inc()
				rt.clSch.Submit(t, -1)
				m.signalWork()
			}
			done.Wait(p)
			// A region is restored once its newest producer has re-run.
			for i := range rebuilds {
				rb := &rebuilds[i]
				if rb.ev != nil && rb.lastID <= t.ID {
					delete(ft.restoreEvents, rb.r)
					rb.ev.Trigger()
					rb.ev = nil
				}
			}
			m.signalWork() // restored regions unfence queued tasks
		}
		now := p.Now()
		if ft.recoverEnd < now {
			ft.recoverEnd = now
		}
		rebuildSpan.EndBytes(now, bytes)
	})
}

// fenced reports whether any fragment overlapping r has a rebuild in
// progress, returning the first such fragment in address order so waiters
// block deterministically.
func (ft *ftState) fenced(r memspace.Region) bool {
	_, busy := ft.fencedOn(r)
	return busy
}

func (ft *ftState) fencedOn(r memspace.Region) (*sim.Event, bool) {
	if len(ft.restoreEvents) == 0 {
		return nil, false
	}
	for _, fr := range detmap.KeysFunc(ft.restoreEvents, regionLess) {
		if fr.Overlaps(r) {
			return ft.restoreEvents[fr], true
		}
	}
	return nil, false
}

// waitRestore blocks until no rebuild overlapping r is pending. No-op
// without fault tolerance or when r is not fenced.
func (rt *Runtime) waitRestore(p *sim.Proc, r memspace.Region) {
	if rt.ft == nil {
		return
	}
	for {
		ev, busy := rt.ft.fencedOn(r)
		if !busy {
			return
		}
		ev.Wait(p)
	}
}

// restorePending reports whether a rebuild overlapping r is in progress.
func (rt *Runtime) restorePending(r memspace.Region) bool {
	return rt.ft != nil && rt.ft.fenced(r)
}

// xferFailedTake consumes the failure mark of transfer id, reporting
// whether its ack was synthesized by a peer's death rather than earned.
func (rt *Runtime) xferFailedTake(id int64) bool {
	if rt.ft == nil || !rt.ft.xferFailed[id] {
		return false
	}
	delete(rt.ft.xferFailed, id)
	return true
}
