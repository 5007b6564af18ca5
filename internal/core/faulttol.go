package core

import (
	"fmt"
	"sort"
	"time"

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

// The reliability protocol's constants: a reliable send gives up after
// maxAttempts transmissions (with its doubling timeout, an outage of ~255x
// the first), and missThreshold consecutive unanswered heartbeats declare
// a node dead.
const (
	maxAttempts   = 8
	missThreshold = 5
)

// ackTimeout is a reliable send's first timeout: 20 wire latencies
// (request, ack and queueing slack), at least 10us.
func ackTimeout(latency sim.Duration) sim.Duration {
	return max(20*latency, 10*time.Microsecond)
}

// ftState is the master-side fault-tolerance machinery, created only when
// Config.Faults is set. With it absent (rt.ft == nil) every code path in
// the runtime behaves bit-identically to a build without the subsystem.
type ftState struct {
	inj *faults.Injector

	// quiet is set under a faults.Plan that injects nothing: the
	// reliability protocol runs, since it moves virtual time, but nothing
	// can be lost, so no failure detector runs, no producer is logged and
	// no dispatch is tracked (inflight is nil). A node convicted anyway, by
	// an exhausted retry ladder, fails the run (nodeLostError).
	quiet bool

	hbInterval sim.Duration

	dead       []bool
	deaths     int    // nodes declared dead so far
	misses     int    // probes unanswered, over all nodes
	reexecs    int    // tasks re-run on survivors
	pongSince  []bool // a pong arrived since the last probe round
	missStreak []int  // consecutive unanswered probes

	// inflight tracks the tasks dispatched to remote nodes but not yet
	// retired, so a dead node's work can be requeued. Entries are
	// registered synchronously at pop time in the comm loop — before the
	// dispatch process even starts — so a death can never catch a task in
	// an untracked window. Nil under a quiet plan.
	inflight map[task.ID]dispatched

	// replayed maps each producer a rebuild has re-run, or is re-running,
	// to the end of its replay. Entries are never removed: a later rebuild
	// sharing the producer waits on that replay instead of running it again
	// (re-running a non-idempotent producer twice would corrupt its output).
	replayed map[task.ID]*sim.Event

	// restoreEvents fences regions whose lost current version is being
	// rebuilt, keyed by directory fragment. Live tasks touching any
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
	ft := &ftState{
		inj:           faults.NewInjector(plan),
		quiet:         plan.Quiet(),
		hbInterval:    plan.HeartbeatIntervalOr(),
		dead:          make([]bool, len(rt.nodes)),
		pongSince:     make([]bool, len(rt.nodes)),
		missStreak:    make([]int, len(rt.nodes)),
		replayed:      make(map[task.ID]*sim.Event),
		restoreEvents: make(map[memspace.Region]*sim.Event),
	}
	rt.ft = ft
	rt.fabric.SetHook(ft.inj)
	if len(rt.nodes) < 2 {
		return // no peers: injection only, nothing to harden
	}
	if !ft.quiet {
		ft.inflight = make(map[task.ID]dispatched)
		rt.master().dir.TrackProducers(memspace.Host(0))
	}
	for _, n := range rt.nodes {
		n := n
		n.ep.EnableReliability(gasnet.Reliability{
			AckTimeout:  ackTimeout(rt.cfg.Cluster.Net.Latency),
			MaxAttempts: maxAttempts,
			OnRetry: func(to int, handler string, attempt int) {
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

// recovers reports whether the run keeps the recovery log: the in-flight
// dispatches and the producer chains a dead node's work is rebuilt from.
func (rt *Runtime) recovers() bool {
	return rt.ft != nil && !rt.ft.quiet
}

// nodeLostError is Run's error when a node is declared dead under a quiet
// fault plan, which keeps no log to recover its work from. Only a retry
// ladder exhausted by a receiver too backlogged to acknowledge in time can
// convict a node there.
type nodeLostError struct {
	node   int
	reason string
}

func (e *nodeLostError) Error() string {
	return fmt.Sprintf("core: node %d declared dead (%s) under a quiet fault plan, which keeps no recovery log", e.node, e.reason)
}

// dispatched is a task in flight to a remote node.
type dispatched struct {
	t    *task.Task
	node int
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
	live, deaths := make([]int, 0, len(mgrs)), -1
	liveMon := func(k int) int {
		if deaths != ft.deaths { // the live managers change only with a death
			deaths, live = ft.deaths, live[:0]
			for _, mk := range mgrs {
				if !ft.dead[mk] {
					live = append(live, mk)
				}
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
							ft.misses++
							now := p.Now()
							rt.cfg.Trace.Record(trace.Span{Kind: trace.Heartbeat,
								Name: fmt.Sprintf("miss:node%d#%d", k, ft.missStreak[k]),
								Node: mk, Dev: -1, Start: now, End: now})
							if ft.missStreak[k] >= missThreshold {
								rt.nodeDead(k, "heartbeat")
								continue
							}
						}
					}
					ft.pongSince[k] = false
					awaiting[k] = true
					p.Await("ping", func(done func(bool)) { me.ep.AMProbeFunc(k, amPing, gasnet.Args{}, done) })
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
	ft.deaths++
	rt.track(k, -rt.cl.outstanding[k]) // its dispatches are requeued below
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
	if ft.quiet {
		panic(&nodeLostError{node: k, reason: reason})
	}
	// Fail every pending transfer with k as a peer so its chain goes on
	// and re-routes (in id order, for a deterministic wake order).
	var failed []*plan
	for _, id := range detmap.Keys(rt.cl.xfers) {
		if x := rt.cl.xfers[id]; x.src == k || x.dst == k {
			failed = append(failed, x)
		}
	}
	for _, x := range failed {
		x.failed = true
		rt.ackXfer(x.id)
	}
	// Requeue k's queued and in-flight tasks on the survivors.
	requeue := rt.clSch.Drain(k)
	for _, id := range detmap.Keys(ft.inflight) {
		if d := ft.inflight[id]; d.node == k {
			requeue = append(requeue, d.t)
			delete(ft.inflight, id)
			ft.reexecs++
		}
	}
	for _, t := range requeue {
		rt.clSch.Submit(t, -1)
	}
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
// earlier-submitted tasks — by the rebuild itself (replay). Each region's
// fence lifts as soon as its newest producer has re-run.
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
			if done, ok := ft.replayed[t.ID]; ok {
				done.Wait(p) // an overlapping rebuild replays t
			} else {
				ft.replayed[t.ID] = sim.NewEvent(rt.e)
				ft.reexecs++
				m.replay(p, t)
				ft.replayed[t.ID].Trigger()
			}
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

// replay re-runs producer t on the master host for a rebuild, on the core
// cpuWorkers leaves to the runtime thread: outside the cluster scheduler,
// the comm thread's slots, the workers and the GPU managers, so nothing it
// needs waits on live work. A fenced input is read in place: Rehome left
// its base on this host, and fetching it would wait on the very fence the
// rebuild lifts. Its writes make this host their sole holder, which
// resets their producer chains. A nested extent replays inline: the
// spawner's LocalCtx has no graph, so each child replays at its Submit, in
// submit order, which the sibling-only arcs allow.
func (n *nodeRT) replay(p *sim.Proc, t *task.Task) {
	for _, c := range t.Copies() {
		if c.Access.Reads() && n.rt.ft.fence(c.Region) == nil {
			p.Await("staging", func(done func(bool)) { n.fetchToHost(c.Region, true, done) })
		}
	}
	run := n.rt.cfg.Trace.Begin(trace.TaskRun, t.Name, n.id, -1, p.Now())
	p.Sleep(jitter(t.ID, t.Work.CPUCost(n.spec)))
	run.EndTask(p.Now(), int64(t.ID))
	if n.rt.cfg.Validate {
		n.runBody(t)
	}
	for _, c := range t.Copies() {
		if c.Access.Writes() {
			n.produced(c.Region, memspace.Host(n.id))
		}
	}
	if spawn := t.Spawner(); spawn != nil {
		spawn(&LocalCtx{n: n, p: p})
	}
}

// fence returns the restore event of the first fragment overlapping r, in
// address order so waiters block deterministically, whose rebuild is in
// progress; nil when r is not fenced.
func (ft *ftState) fence(r memspace.Region) *sim.Event {
	if len(ft.restoreEvents) == 0 {
		return nil
	}
	for _, fr := range detmap.KeysFunc(ft.restoreEvents, regionLess) {
		if fr.Overlaps(r) {
			return ft.restoreEvents[fr]
		}
	}
	return nil
}

// waitRestore runs then once no rebuild overlapping r is pending: at once
// without fault tolerance or when r is not fenced.
func (rt *Runtime) waitRestore(r memspace.Region, then func(bool)) {
	if rt.ft != nil {
		if ev := rt.ft.fence(r); ev != nil {
			ev.WaitFunc(func() { rt.waitRestore(r, then) })
			return
		}
	}
	then(true)
}
