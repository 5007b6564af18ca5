package core

import (
	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// Distributed managers (DESIGN.md §13): one state, N queues. Every
// dependence lookup and coherence-directory operation is applied to the
// master image's single depgraph.Graph and coherence.Directory, whatever
// Config.ManagerShards says — which is why results stay checksum-exact
// across shard counts. What the shard count changes is virtual time:
// dmgr.Map assigns each 256 KiB address block to a shard hosted on a
// cluster node, and Config.ManagerOpCost arms an FCFS serial queue per
// shard (dmgr.Model) that the caller of a blocking query sleeps on. One
// queue saturates; N queues scale. That difference is what `ompss-bench
// -experiment weakscale` measures. With more than one shard the owning
// shard's host also brokers slave-to-slave pushes, runs a slice of the
// failure detector, and fails over to the master when it dies.
//
// One shard at zero op cost — the default — is the centralized runtime by
// construction: the only shard is hosted on node 0, so no request is
// remote, no broker or detector lives off the master, no shard can fail
// over, and every charge path returns before touching a queue.

// Per-operation weights of the service model, in shard-queue operations
// per decomposed span.
const (
	// opsSubmitPerSpan: one conflict lookup plus one bookkeeping update
	// per fragment span of each dependence clause at submission.
	opsSubmitPerSpan = 2
	// opsProducedPerSpan: the version bump + holder reset (and producer
	// log append) when a task's output is produced.
	opsProducedPerSpan = 1
	// opsStagePerSpan: the Missing + Holders queries the transfer planner
	// issues per region staged to a node.
	opsStagePerSpan = 2
	// opsRebuildPerFrag: per-fragment cost of rebuilding a failed
	// manager's directory slice on its new host.
	opsRebuildPerFrag = 1
)

// amDirOp is the control active message that carries a routed directory
// operation to a remote shard host. The state transition itself is
// applied at the master image (state-immediate); the message
// makes the metadata routing visible on the simulated fabric, and its
// handler does nothing. Best-effort like the heartbeat: a lost datagram
// loses nothing.
const amDirOp = "dirop"

// mgrState is the distributed-manager cost model of one runtime: who owns
// which bytes and how busy each owner's queue is.
type mgrState struct {
	dmap  *dmgr.Map
	model *dmgr.Model

	// Reusable span scratch of the (serial) charge paths that run on the
	// submission thread; concurrent paths (staging chains) decompose into
	// buffers of their own.
	spanbuf []dmgr.Span
	opsbuf  []int

	// brokered counts the pushes a remote shard host brokered, failovers
	// the shards rehosted on the master.
	brokered, failovers int
}

// newMgrState builds the manager model: at least one shard, shard 0 on the
// master.
func newMgrState(cfg Config) *mgrState {
	shards := max(cfg.ManagerShards, 1)
	dmap := dmgr.NewMap(shards, len(cfg.Cluster.Nodes))
	// A routed metadata request pays the one-way wire latency plus the
	// sender-side message overhead per hop.
	hop := cfg.Cluster.Net.Latency + cfg.Cluster.Net.PerMessageOverhead
	return &mgrState{
		dmap:   dmap,
		model:  dmgr.NewModel(dmap, cfg.ManagerOpCost, hop),
		opsbuf: make([]int, shards),
	}
}

// spanOps folds the spans of r into the per-shard op tally.
func (m *mgrState) spanOps(ops []int, r memspace.Region, perSpan int) {
	m.spanbuf = m.dmap.SpansInto(r, m.spanbuf)
	for _, sp := range m.spanbuf {
		ops[sp.Shard] += perSpan
	}
}

// mgrChargeSubmit models the dependence lookups and conflict-map updates
// of one submission batch. The whole batch's operations are tallied per
// owning shard first and each shard serves its share as one FCFS burst —
// shards work in parallel, so the submitting thread sleeps only until the
// slowest shard's reply. With one shard every operation serializes
// through a single queue: exactly the centralized bottleneck.
func (rt *Runtime) mgrChargeSubmit(p *sim.Proc, ts []*task.Task) {
	m := rt.mgr
	if m.model.OpCost == 0 || len(ts) == 0 {
		return
	}
	ops := m.opsbuf
	for i := range ops {
		ops[i] = 0
	}
	for _, t := range ts {
		for _, d := range t.Deps {
			if !d.Region.Valid() {
				continue
			}
			m.spanOps(ops, d.Region, opsSubmitPerSpan)
		}
	}
	now := p.Now()
	done := now
	for s, n := range ops {
		if n == 0 {
			continue
		}
		if end := m.model.ServeFrom(now, 0, s, n); end > done {
			done = end
		}
	}
	if done > now {
		p.Sleep(sim.Duration(done - now))
	}
}

// mgrChargeUpdate models an asynchronous directory update (Produced /
// RecordProducer) issued from caller's node: the owning shards' queues
// absorb the work, nobody blocks on the reply.
func (rt *Runtime) mgrChargeUpdate(now sim.Time, caller int, r memspace.Region) {
	m := rt.mgr
	if m.model.OpCost == 0 {
		return
	}
	m.spanbuf = m.dmap.SpansInto(r, m.spanbuf)
	for _, sp := range m.spanbuf {
		m.model.ServeFrom(now, caller, sp.Shard, opsProducedPerSpan)
	}
}

// mgrChargeQuery models the staging plan pl's blocking coherence query
// (the planner's Missing/Holders round) against its region's owning
// shards: pl waits until the slowest shard has answered, then routes
// (plan.routeFn).
func (rt *Runtime) mgrChargeQuery(pl *plan) {
	m := rt.mgr
	if m.model.OpCost == 0 {
		pl.plannedFn(true)
		return
	}
	now := rt.e.Now()
	done := now
	pl.spans = m.dmap.SpansInto(pl.r, pl.spans[:0])
	for _, sp := range pl.spans {
		if end := m.model.ServeFrom(now, 0, sp.Shard, opsStagePerSpan); end > done {
			done = end
		}
	}
	pl.qi, pl.prev = 0, -1
	if done > now {
		rt.e.After(sim.Duration(done-now), pl.route)
		return
	}
	pl.routeFn()
}

// mgrBrokerEndpoint returns the endpoint the push request for frag should
// originate from: the owning shard's host (the manager brokering the
// metadata), or the master when the shard is hosted there or its host is
// dead.
func (rt *Runtime) mgrBrokerEndpoint(frag memspace.Region) *nodeRT {
	m := rt.mgr
	h := m.dmap.Host(m.dmap.Owner(frag.Addr))
	if h == 0 || rt.nodeIsDead(h) {
		return rt.master()
	}
	m.brokered++
	return rt.nodes[h]
}

// mgrFailover rehosts every shard of a dead manager node onto the master
// and charges the rebuild of its directory slice (one op per fragment span
// the shard owns) to the shard's new queue. The slice contents themselves
// are recovered by the producer-chain machinery (recoverLost), which the
// caller runs right after — the directory state never lived only on the
// dead host in the first place (state-immediate), so the rebuild cost is
// time, not data.
func (rt *Runtime) mgrFailover(now sim.Time, dead int) {
	m := rt.mgr
	moved := m.dmap.HostedOn(dead)
	if len(moved) == 0 {
		return
	}
	frags := m.dmap.ShardFragments(rt.master().dir.Regions())
	for _, s := range moved {
		m.dmap.Reassign(s, 0)
		m.failovers++
		m.model.Serve(now, s, opsRebuildPerFrag*frags[s])
	}
}

// registerDirOpHandlers installs the amDirOp handler, which does nothing,
// on every node's endpoint (any node can host a shard, and failover can
// move shards).
func (rt *Runtime) registerDirOpHandlers() {
	for _, n := range rt.nodes {
		n.ep.RegisterNonBlocking(amDirOp, func(gasnet.AM) {})
	}
}
