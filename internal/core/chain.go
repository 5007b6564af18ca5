package core

import (
	"fmt"
	"slices"

	"github.com/bsc-repro/ompss/internal/dmgr"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// What moves bytes or control for one task — a remote dispatch, staging a
// region at a node or a host, a transfer, a slave's push — is an event
// chain, under the chain rule of DESIGN.md §6: a chain takes exactly the
// event slots of the process it replaced, and hands its outcome to its
// continuation last, where that process returned; a loop that needs one
// waits on it with sim.Proc.Await. Its state is a pooled record whose hot
// steps are bound once, so it allocates nothing.

// pool recycles the records of one kind of chain.
type pool[T any] struct {
	free []*T
	make func() *T
}

func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return p.make()
}

func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

type chains struct {
	movers      pool[mover]
	plans       pool[plan]
	dispatchers pool[dispatcher]
	pushes      pool[pushRec]
	reports     pool[report]
}

func (rt *Runtime) initChains() {
	c := &rt.chains
	c.movers.make = func() *mover { mv := &mover{rt: rt}; mv.step = mv.stepped; return mv }
	c.plans.make = func() *plan {
		pl := &plan{rt: rt}
		pl.planned, pl.moved, pl.sent, pl.arrived = pl.plannedFn, pl.movedFn, pl.sentFn, pl.arrivedFn
		pl.probed, pl.fetched, pl.route = pl.probedFn, pl.fetchedFn, pl.routeFn
		return pl
	}
	c.dispatchers.make = func() *dispatcher {
		d := &dispatcher{rt: rt}
		d.start, d.staged, d.sent = d.startFn, d.stagedFn, d.end
		return d
	}
	c.pushes.make = func() *pushRec { pu := new(pushRec); pu.fetched = pu.fetchedFn; return pu }
	c.reports.make = func() *report { rp := new(report); rp.send = rp.sendFn; return rp }
}

// moveEach runs move on every region and hands then whether all succeeded:
// one after the other up to the first failure or, concurrent, one chain per
// region started in order in the slots of the processes they replace. A
// concurrent join wakes its caller exactly where waiting on each region's
// end in turn woke it: at the end of the first region not yet ended.
func (rt *Runtime) moveEach(concurrent bool, regions []memspace.Region,
	move func(memspace.Region, func(bool)), then func(bool)) {
	mv := rt.chains.movers.get()
	mv.regions, mv.move, mv.then, mv.ok, mv.next = regions, move, then, true, 0
	if !concurrent {
		mv.seq()
		return
	}
	mv.ended = slices.Grow(mv.ended[:0], len(regions))[:len(regions)]
	clear(mv.ended)
	for i, r := range regions {
		rt.e.After(0, func() {
			move(r, func(ok bool) {
				mv.ok = mv.ok && ok
				if mv.ended[i] = true; i == mv.next {
					rt.e.After(0, mv.woken)
				}
			})
		})
	}
	mv.woken()
}

type mover struct {
	rt      *Runtime
	regions []memspace.Region
	move    func(memspace.Region, func(bool))
	then    func(bool)
	ok      bool
	next    int    // the region moving, or waited on (concurrent)
	ended   []bool // concurrent: the regions whose chains have ended
	step    func(bool)
}

func (mv *mover) seq() {
	if mv.next == len(mv.regions) {
		mv.finish()
		return
	}
	mv.move(mv.regions[mv.next], mv.step)
}

func (mv *mover) stepped(ok bool) {
	if mv.next++; !ok {
		mv.ok = false
		mv.next = len(mv.regions)
	}
	mv.seq()
}

func (mv *mover) woken() {
	for mv.next < len(mv.regions) && mv.ended[mv.next] {
		mv.next++
	}
	if mv.next == len(mv.regions) {
		mv.finish()
	}
}

func (mv *mover) finish() {
	then, ok := mv.then, mv.ok
	mv.regions, mv.move, mv.then = nil, nil, nil
	mv.rt.chains.movers.put(mv)
	then(ok)
}

// plan makes node dst's host hold the current version of r, planned on the
// directory of image n: the master staging r at slave dst (stageToNode), or
// an image fetching r into its own host (fetchToHost). An attempt joins a
// transfer of r into dst already under way, or leads one: it asks the
// directory what dst is missing — after the master's query is charged to
// r's manager shards, or an image's reduction partials are folded — and
// moves each fragment from a source chosen when its turn comes. An attempt
// a fault disturbed (a source died, a joined transfer failed), or that
// joined a local one, waits out any rebuild of r and starts over. A plan
// moves one fragment at a time, so it is also the record of its transfer
// in flight (xfer).
type plan struct {
	rt                  *Runtime
	n                   *nodeRT
	r                   memspace.Region
	dst, i, src         int
	stage, combine      bool // stage: n is the master, dst a slave
	leading, fragmented bool
	then                func(bool)
	missing             []memspace.Region
	d2h                 trace.Open
	missBuf             [4]memspace.Region
	holdBuf             [4]memspace.Location

	// The directory query (mgrChargeQuery): spans, the next to route, the
	// last host probed.
	spans    []dmgr.Span
	qi, prev int

	// The transfer in flight (xfer).
	id                     int64
	start                  sim.Time
	acked, waiting, failed bool

	planned, moved, sent, probed, fetched func(bool)
	arrived, route                        func()
}

// stageToNode makes node k hold the current version of r. Routes are:
// master host -> k directly; a master GPU -> master host -> k; another
// slave j -> k directly when SlaveToSlave is enabled, else j -> master -> k.
// then gets false only when k itself is unreachable; a transfer from a
// failed source is planned again until the failure detector convicts it,
// and then re-routed around it.
func (rt *Runtime) stageToNode(r memspace.Region, k int, then func(bool)) {
	rt.master().hold(r, k, true, then)
}

// fetchToHost makes this node's host memory hold the current version of r,
// with reduction partials folded in when combine is set.
func (n *nodeRT) fetchToHost(r memspace.Region, combine bool, then func(bool)) {
	n.hold(r, n.id, combine, then)
}

func (n *nodeRT) hold(r memspace.Region, dst int, combine bool, then func(bool)) {
	pl := n.rt.chains.plans.get()
	pl.n, pl.r, pl.dst, pl.stage, pl.combine, pl.then = n, r, dst, dst != n.id, combine, then
	pl.attempt(true)
}

func (pl *plan) attempt(bool) {
	n := pl.n
	switch ev := n.joinInflight(pl.r, memspace.Host(pl.dst)); {
	case ev != nil:
		// A joined transfer may have failed (fault tolerance), or been an
		// eviction landing only what its GPU still holds (a local plan):
		// re-evaluate. The master's, unarmed, always succeeded.
		ev.WaitFunc(func() { pl.once(true, pl.stage && pl.rt.ft == nil) })
	case pl.combine && n.folding != nil:
		// The host copy of pl.r may be what is being folded into.
		n.folding.WaitFunc(func() { pl.attempt(true) })
	case pl.combine && len(n.overlappingRedRegions(pl.r)) > 0:
		n.combineReductions(n.overlappingRedRegions(pl.r), pl.attempt)
	case pl.stage:
		pl.rt.mgrChargeQuery(pl)
	default:
		pl.plannedFn(true)
	}
}

func (pl *plan) plannedFn(bool) {
	n, dst := pl.n, memspace.Host(pl.dst)
	switch pl.missing = n.dir.Missing(pl.r, dst, pl.missBuf[:0]); {
	case len(pl.missing) == 0:
		pl.once(true, true)
	case pl.stage && pl.rt.nodeIsDead(pl.dst):
		pl.once(false, true)
	default:
		n.leadInflight(pl.r, dst)
		pl.leading, pl.fragmented, pl.i = true, len(pl.missing) > 1 || pl.missing[0] != pl.r, 0
		if pl.fragmented {
			n.fragAssemblies++
		}
		pl.next()
	}
}

// next moves the fragments from the i-th on. The fragment list is fixed
// for the attempt; the source of each is chosen when its turn comes.
func (pl *plan) next() {
	n, rt := pl.n, pl.rt
	for ; pl.i < len(pl.missing); pl.i++ {
		frag := pl.missing[pl.i]
		holders := n.dir.Holders(frag, pl.holdBuf[:0])
		for _, h := range holders {
			if !pl.stage && h.Node == n.id && !h.IsHost() {
				// A local GPU (cheap D2H) before a remote node: the one
				// way bytes leave a GPU (reduction partials aside).
				name := "writeback"
				if pl.fragmented {
					name = "assemble"
				}
				pl.d2h = rt.cfg.Trace.Begin(trace.XferD2H, name, n.id, h.Dev, rt.e.Now())
				n.devs[h.Dev].CopyAsync(gpusim.D2H, frag, nil).WaitFunc(func() { pl.copied(h.Dev) })
				return
			}
		}
		switch pl.src = pickSource(holders, pl.dst, rt.cfg.SlaveToSlave, rt.nodeIsDead); {
		case pl.src == srcHeld:
			continue // an overlapping transfer landed it meanwhile
		case pl.src == srcLost:
			pl.once(false, false) // its holder died since the Missing query
		case !pl.stage && !n.isMaster():
			panic(fmt.Sprintf("core: node %d asked to fetch %v it does not hold", n.id, frag))
		case pl.stage && (pl.src == 0 || !rt.cfg.SlaveToSlave):
			// Via the master host: after a D2H flush of a master GPU or,
			// master-routed, an s->m pull.
			pl.src = 0
			n.fetchToHost(frag, true, pl.fetched)
		default:
			pl.xfer()
		}
		return
	}
	pl.once(true, true)
}

// copied lands a local D2H, timed without a host store: only the pieces the
// GPU still holds are current, so only those are copied and registered — a
// newer version produced meanwhile, or a dropped line, leaves the host be.
func (pl *plan) copied(dev int) {
	n, frag := pl.n, pl.missing[pl.i]
	pl.d2h.EndRegion(pl.rt.e.Now(), frag.Addr, frag.Size)
	for _, pc := range n.dir.Held(frag, memspace.GPU(n.id, dev)) {
		memspace.CopyRegion(n.hostStore, n.devs[dev].Store(), pc)
		n.dir.AddHolder(pc, memspace.Host(n.id))
	}
	n.caches[dev].Clean(frag)
	pl.rt.writebacks++
	pl.i++
	pl.next()
}

// movedFn: from the master, a failed transfer means dst itself never
// acknowledged, which settles the attempt; from a slave, re-plan.
func (pl *plan) movedFn(ok bool) {
	if !ok {
		pl.once(false, pl.stage && pl.src == 0)
		return
	}
	pl.i++
	pl.next()
}

// once ends an attempt: a settled one (or one whose destination died) ends
// the chain, any other waits out a rebuild of r and attempts again.
func (pl *plan) once(ok, settled bool) {
	if pl.leading {
		pl.leading = false
		pl.n.endInflight(pl.r, memspace.Host(pl.dst))
	}
	if !settled && !(pl.stage && pl.rt.nodeIsDead(pl.dst)) {
		pl.rt.waitRestore(pl.r, pl.attempt)
		return
	}
	then := pl.then
	pl.n, pl.then, pl.missing = nil, nil, nil
	pl.rt.chains.plans.put(pl)
	then(ok && settled)
}

func (pl *plan) probedFn(bool) { pl.routeFn() }

func (pl *plan) fetchedFn(bool) { pl.xfer() }

// routeFn ends the directory query: one best-effort control datagram from
// the master to each distinct remote shard host owning a span. State was
// already applied at the master image; the datagrams put the metadata
// routing on the simulated wire where the fabric's counters (and traces)
// can see it.
func (pl *plan) routeFn() {
	rt := pl.rt
	for ; pl.qi < len(pl.spans); pl.qi++ {
		h := rt.mgr.dmap.Host(pl.spans[pl.qi].Shard)
		if h == 0 || h == pl.prev || rt.nodeIsDead(h) {
			continue
		}
		pl.prev = h
		pl.qi++
		rt.master().ep.AMProbeFunc(h, amDirOp, gasnet.Args{}, pl.probed)
		return
	}
	pl.plannedFn(true)
}

// xfer moves the i-th fragment from node src's host memory to node dst's
// and records Host(dst) as a holder — the one inter-node transfer, whichever
// of the routes m->s, s->s or s->m it is. The master sends its own data; a
// slave is asked to push (by the manager brokering the fragment's metadata
// when the data stays between slaves). The plan goes on once dst has
// acknowledged to the master, so ordering with a subsequent runTask holds
// even under retries; a failure means a peer died or exhausted the retry
// ladder first. It convicts no one: a slave broker may have sent the push,
// so the sender that failed need not be the source; the plan starts over,
// and the heartbeat alone convicts a silent node.
func (pl *plan) xfer() {
	rt, frag := pl.rt, pl.missing[pl.i]
	rt.cl.xferSeq++
	pl.id, pl.start, pl.acked, pl.waiting, pl.failed = rt.cl.xferSeq, rt.e.Now(), false, false, false
	rt.cl.xfers[pl.id] = pl
	push := gasnet.Args{ID: pl.id, Node: pl.dst, Region: frag}
	switch {
	case pl.src == 0:
		rt.master().ep.AMLongFunc(pl.dst, amData, gasnet.Args{ID: pl.id}, frag, pl.sent)
	case pl.dst == 0:
		rt.master().ep.AMShortFunc(pl.src, amPush, push, pl.sent)
	default:
		rt.mgrBrokerEndpoint(frag).ep.AMShortFunc(pl.src, amPush, push, pl.sent)
	}
}

func (pl *plan) sentFn(ok bool) {
	switch {
	case !ok:
		pl.rt.ackXfer(pl.id)
		pl.movedFn(false)
	case pl.acked:
		pl.arrivedFn()
	default:
		pl.waiting = true
	}
}

// ackXfer is called at the master when a transfer's acknowledgement
// arrives, and by a peer's death, which marks the transfer failed first.
func (rt *Runtime) ackXfer(id int64) {
	if pl, ok := rt.cl.xfers[id]; ok {
		delete(rt.cl.xfers, id)
		if pl.acked = true; pl.waiting {
			rt.e.After(0, pl.arrived)
		}
	}
}

func (pl *plan) arrivedFn() {
	if pl.failed {
		pl.movedFn(false)
		return
	}
	rt, frag := pl.rt, pl.missing[pl.i]
	name, bytes := "m->s", &rt.bytesMtoS
	switch {
	case pl.dst == 0:
		name = "s->m"
	case pl.src != 0:
		name, bytes = "s->s", &rt.bytesStoS
	}
	rt.cfg.Trace.Record(trace.Span{Kind: trace.NetSend, Name: name,
		Node: pl.src, Dev: -1, Start: pl.start, End: rt.e.Now(),
		Bytes: frag.Size, Region: frag.Addr, Peer: pl.dst})
	*bytes += frag.Size
	if pl.dst != 0 { // the master's data handler recorded Host(0) on arrival
		rt.master().dir.AddHolder(frag, memspace.Host(pl.dst))
	}
	pl.movedFn(true)
}

// dispatcher is a remote task's dispatch: stage the task's inputs at node
// k, then send the run request. Staging overlaps the execution of other
// remote tasks because every dispatch is a chain of its own.
type dispatcher struct {
	rt           *Runtime
	t            *task.Task
	k            int
	reads        []memspace.Region
	start        func()
	staged, sent func(bool)
}

// dispatch starts t's dispatch to node k, in the slot its process had.
func (rt *Runtime) dispatch(t *task.Task, k int) {
	d := rt.chains.dispatchers.get()
	d.t, d.k = t, k
	rt.e.After(0, d.start)
}

func (d *dispatcher) startFn() {
	rt := d.rt
	if rt.nodeIsDead(d.k) {
		d.end(true) // nodeDead already requeued this task
		return
	}
	d.reads = d.reads[:0]
	for _, c := range d.t.Copies() {
		// A write over pending reduction partials is staged too, which
		// folds them (tryStage says why).
		if c.Access.Reads() || len(rt.master().overlappingRedRegions(c.Region)) > 0 {
			d.reads = append(d.reads, c.Region)
		}
	}
	rt.moveEach(rt.cfg.NonBlockingCache, d.reads, rt.nodes[d.k].stageHere, d.staged)
}

func (d *dispatcher) stagedFn(ok bool) {
	if !ok || d.rt.nodeIsDead(d.k) {
		// Staging only fails when k itself is unreachable; declaring it
		// dead (idempotently) requeues every task bound to it, this one
		// included.
		d.rt.nodeDead(d.k, "stage")
		d.end(true)
		return
	}
	d.rt.master().ep.AMMediumFunc(d.k, amRunTask, gasnet.Args{Task: d.t}, taskDescBytes(d.t), d.sent)
}

// end ends the dispatch; !ok: k never acknowledged the run request.
func (d *dispatcher) end(ok bool) {
	if !ok {
		d.rt.nodeDead(d.k, "runTask")
	}
	d.t = nil
	d.rt.chains.dispatchers.put(d)
}

// pushRec is a slave's push: fetch the region into its host (D2H first if
// only a GPU holds it), then send it on.
type pushRec struct {
	n       *nodeRT
	args    gasnet.Args
	fetched func(bool)
}

func (pu *pushRec) fetchedFn(bool) {
	n, a := pu.n, pu.args
	n.rt.chains.pushes.put(pu)
	n.ep.AMLongFunc(a.Node, amData, gasnet.Args{ID: a.ID}, a.Region, nil)
}
