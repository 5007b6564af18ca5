package core

import (
	"fmt"
	"strconv"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/detmap"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

const (
	// taskOverhead models the per-task bookkeeping cost of the runtime
	// (graph insertion, scheduling, coherence lookups).
	taskOverhead = 4 * time.Microsecond

	// kernelJitter is the fractional deterministic variation applied to
	// each task's modeled duration (hashed from the task id). Real kernels
	// never take identical time; without this, a FIFO schedule can stay
	// accidentally aligned with data placement and hide the locality
	// effects the paper measures.
	kernelJitter = 0.02

	// evictionOverhead is the fixed bookkeeping cost of evicting one cache
	// line under memory pressure (pool compaction, cudaFree/cudaMalloc of
	// the backing block). It models why the paper's N-Body prefers the
	// no-cache policy: replacement under pressure costs more than eagerly
	// moving data out and keeping GPU memory free (Section IV.B.1).
	evictionOverhead = 150 * time.Microsecond
)

// nodeRT is one runtime image: the master (node 0) or a slave. Each image
// owns its host store, GPUs with software caches, a local directory, a
// scheduler and its worker processes — the hierarchical structure of
// Section III.C.3.
type nodeRT struct {
	rt   *Runtime
	id   int
	spec hw.NodeSpec

	hostStore *memspace.Store
	ep        *gasnet.Endpoint
	devs      []*gpusim.Device
	caches    []*coherence.Cache
	dir       *coherence.Directory
	sch       sched.Scheduler
	// lookahead is non-nil when Config.Lookahead wrapped sch with a
	// ready-ahead window; kept for window-depth sampling.
	lookahead *sched.LookaheadSched

	places       int         // 0 = CPU pool, 1..G = GPUs, master adds G+1..G+K remote
	dispatchName string      // of the master's processes dispatching to this node
	workSignal   *sim.Signal // broadcast whenever work may have appeared
	stopping     bool

	// onDone maps locally queued tasks to their completion action (retire
	// at master, or notify the master over the wire).
	onDone map[task.ID]func(p *sim.Proc, t *task.Task, place int)

	// prefetched[g] is a task already popped and staged by GPU manager g.
	prefetched []*task.Task

	// inflight dedupes concurrent transfers of one region into one place:
	// this image's host or one of its GPUs and, on the master, the host of
	// a node it is staging to.
	inflight map[inflightKey]*sim.Event

	// redPartials tracks, per reduction region, the GPUs holding partial
	// accumulators; redCombiners the folding function. Partials are
	// combined into the host copy before the next reader (fetchToHost).
	redPartials  map[memspace.Region][]int
	redCombiners map[memspace.Region]task.Combiner

	// guardBuf is runBody's reused snapshot of In-only bytes.
	guardBuf []byte
	// scores and estimates are the per-place slices affinityScore and
	// placeEstimates return, reused: the scheduler reads each before its
	// next call.
	scores    []uint64
	estimates []sched.Estimate

	met nodeMetrics
}

type inflightKey struct {
	region memspace.Region
	dst    memspace.Location
}

// regionLess orders regions by address, then size — the deterministic
// visit order for Region-keyed maps in this package.
func regionLess(a, b memspace.Region) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Size < b.Size
}

// hostDevKey is the device index that stands for the host.
const hostDevKey = -1

func (n *nodeRT) isMaster() bool { return n.id == 0 }

// joinInflight waits out a transfer of r into dst that is already under
// way and reports whether there was one.
func (n *nodeRT) joinInflight(p *sim.Proc, r memspace.Region, dst memspace.Location) bool {
	ev, busy := n.inflight[inflightKey{r, dst}]
	if busy {
		ev.Wait(p)
	}
	return busy
}

// leadInflight announces the caller's transfer of r into dst; the returned
// function ends it and wakes whoever joined.
func (n *nodeRT) leadInflight(r memspace.Region, dst memspace.Location) func() {
	key, ev := inflightKey{r, dst}, sim.NewEvent(n.rt.e)
	n.inflight[key] = ev
	return func() {
		delete(n.inflight, key)
		ev.Trigger()
	}
}

func newNodeRT(rt *Runtime, id int, spec hw.NodeSpec) *nodeRT {
	n := &nodeRT{
		rt:           rt,
		id:           id,
		spec:         spec,
		dir:          coherence.NewDirectory(),
		onDone:       make(map[task.ID]func(*sim.Proc, *task.Task, int)),
		inflight:     make(map[inflightKey]*sim.Event),
		redPartials:  make(map[memspace.Region][]int),
		redCombiners: make(map[memspace.Region]task.Combiner),
		prefetched:   make([]*task.Task, len(spec.GPUs)),
		workSignal:   sim.NewSignal(rt.e),
		dispatchName: "dispatch->node" + strconv.Itoa(id),
		met:          newNodeMetrics(rt.cfg.Metrics, id),
	}
	if rt.cfg.Validate {
		n.hostStore = memspace.NewStore(memspace.Host(id))
	}
	n.ep = gasnet.NewEndpoint(rt.fabric, id, n.hostStore)
	n.ep.Instrument(endpointInstruments(rt.cfg.Metrics, id))
	for g, gs := range spec.GPUs {
		dev := gpusim.New(rt.e, gs, memspace.GPU(id, g), rt.cfg.Overlap, rt.cfg.Validate)
		dev.Instrument(deviceInstruments(rt.cfg.Metrics, id, g))
		n.devs = append(n.devs, dev)
		capacity := uint64(float64(gs.MemBytes) * (1 - rt.cfg.GPUCacheHeadroom))
		cache := coherence.NewCache(memspace.GPU(id, g), rt.cfg.CachePolicy, capacity)
		cache.Instrument(cacheInstruments(rt.cfg.Metrics, id, g))
		n.caches = append(n.caches, cache)
	}
	n.places = 1 + len(spec.GPUs)
	n.scores, n.estimates = make([]uint64, n.places), make([]sched.Estimate, n.places)
	scope := "node" + strconv.Itoa(id)
	n.sch = sched.New(rt.cfg.Scheduler, n.places, sched.Options{
		Score: n.affinityScore, Cost: n.costModel(), Steal: rt.cfg.Steal,
		CanRun: n.canRun, Accepts: n.accepts, Hooks: schedHooks(rt.cfg.Metrics, scope)})
	if rt.cfg.Lookahead > 1 {
		n.sch = sched.Lookahead(n.sch, rt.cfg.Lookahead, lookaheadHooks(rt.cfg.Metrics, scope))
		n.lookahead = n.sch.(*sched.LookaheadSched)
	}
	return n
}

// placeLoc maps a local place id to the address space it prefers.
func (n *nodeRT) placeLoc(place int) memspace.Location {
	if place == 0 {
		return memspace.Host(n.id)
	}
	return memspace.GPU(n.id, place-1)
}

// accepts implements device compatibility: the CPU pool runs SMP tasks and
// GPU managers run CUDA tasks.
func (n *nodeRT) accepts(place int, d task.Device) bool {
	if place == 0 {
		return d == task.SMP
	}
	return d == task.CUDA
}

// canRun is accepts for one task: on an image, compatibility is all there is.
func (n *nodeRT) canRun(place int, t *task.Task) bool { return n.accepts(place, t.Device) }

// affinityScore scores each place by the bytes of t's data it already
// holds, per the locality-aware policy.
func (n *nodeRT) affinityScore(t *task.Task) []uint64 {
	scores := n.scores
	clear(scores)
	for place := 0; place < n.places; place++ {
		if !n.canRun(place, t) {
			continue
		}
		loc := n.placeLoc(place)
		for _, c := range t.Copies() {
			held := n.dir.HeldBytes(c.Region, loc)
			if held == 0 {
				continue
			}
			// Written data counts double: the output wants to stay
			// where it lives (it is both read and re-produced), which
			// also breaks read-vs-write ties deterministically.
			w := uint64(1)
			if c.Access.Writes() {
				w = 2
			}
			scores[place] += w * held
		}
	}
	return scores
}

// sampleSchedDepth records the scheduler's queue depth (and, with
// lookahead enabled, the ready-ahead window depth) as Perfetto counter
// rows. No-op when tracing is off.
func (n *nodeRT) sampleSchedDepth(now sim.Time) {
	tr := n.rt.cfg.Trace
	if tr == nil {
		return
	}
	tr.Count("sched_queue_depth", n.id, now, int64(n.sch.Len()))
	if n.lookahead != nil {
		tr.Count("sched_lookahead_depth", n.id, now, int64(n.lookahead.Buffered()))
	}
}

// signalWork wakes idle workers.
func (n *nodeRT) signalWork() { n.workSignal.Broadcast() }

// idleWait builds, once per process, the idle wait of a loop whose work is
// what take finds: each call runs take, and while take finds nothing and
// quit reports false, waits for signalWork and runs take again. The waits
// are guarded (sim.Signal.WaitUntil): a wake-up whose take would find
// nothing leaves the process parked instead of switching to it. A call
// reports whether take found work; false means quit.
func (n *nodeRT) idleWait(p *sim.Proc, take, quit func() bool) func() bool {
	found := false
	ready := func() bool {
		found = take()
		return found || quit()
	}
	return func() bool {
		if gen := n.workSignal.Gen(); !ready() {
			n.workSignal.WaitUntil(p, gen, ready)
		}
		return found
	}
}

// isStopping is the quit test of the image's worker loops.
func (n *nodeRT) isStopping() bool { return n.stopping }

// enqueueLocal queues t on this node's scheduler with a completion action.
func (n *nodeRT) enqueueLocal(t *task.Task, done func(p *sim.Proc, t *task.Task, place int)) {
	n.onDone[t.ID] = done
	n.sch.Submit(t, -1)
	n.signalWork()
}

// start spawns this image's worker processes.
func (n *nodeRT) start() {
	workers := n.rt.cfg.cpuWorkers(n.spec)
	for w := 0; w < workers; w++ {
		n.rt.e.Go(fmt.Sprintf("node%d:cpu%d", n.id, w), func(p *sim.Proc) {
			n.workerLoop(p, 0)
		})
	}
	for g := range n.devs {
		g := g
		n.rt.e.Go(fmt.Sprintf("node%d:gpu%d", n.id, g), func(p *sim.Proc) {
			n.gpuManagerLoop(p, g)
		})
	}
	if len(n.rt.nodes) > 1 {
		// The active-message machinery only exists on real clusters; a
		// single-node run has no peers to talk to.
		if !n.isMaster() {
			n.registerSlaveHandlers()
		}
		n.ep.Start(n.rt.e)
	}
}

// workerLoop is the SMP worker thread body.
func (n *nodeRT) workerLoop(p *sim.Proc, place int) {
	var t *task.Task
	wait := n.idleWait(p, func() bool {
		t = n.sch.Pop(place)
		return t != nil
	}, n.isStopping)
	for wait() {
		n.sampleSchedDepth(p.Now())
		n.runSMP(p, t)
	}
}

// runSMP executes an SMP task on this node's host.
func (n *nodeRT) runSMP(p *sim.Proc, t *task.Task) {
	p.Sleep(taskOverhead)
	n.registerReduction(t)
	copies := t.Copies()
	// Inputs must be valid in host memory (SMP tasks use copy clauses too).
	n.stageRegions(p, t, hostDevKey)
	start := p.Now()
	run := n.rt.cfg.Trace.Begin(trace.TaskRun, t.Name, n.id, -1, start)
	p.Sleep(jitter(t.ID, t.Work.CPUCost(n.spec)))
	run.EndTask(p.Now(), int64(t.ID))
	n.met.taskRunNS.Observe(sim.Duration(p.Now() - start))
	if n.rt.cfg.Validate {
		n.runBody(t, n.hostStore)
	}
	// The parent's own outputs are published before any nested tasks run,
	// so children can read what the parent computed; children then publish
	// their own writes on top.
	for _, c := range copies {
		if c.Access.Writes() {
			n.produced(c.Region, memspace.Host(n.id))
		}
	}
	if t.Spawner != nil {
		// The spawner blocks until its nested tasks drain; detach it so
		// this worker can execute those very tasks (a parent waiting on
		// its children must not occupy the only executor).
		n.rt.e.Go("spawner:"+t.Name, func(sp *sim.Proc) {
			n.runSpawner(sp, t)
			n.met.tasksSMP.Inc()
			n.completeLocal(sp, t, 0)
		})
		return
	}
	n.met.tasksSMP.Inc()
	n.completeLocal(p, t, 0)
}

// completeLocal runs the completion action registered for t. Master-local
// tasks have no registered action: they retire directly into the graph.
func (n *nodeRT) completeLocal(p *sim.Proc, t *task.Task, place int) {
	done, ok := n.onDone[t.ID]
	if !ok {
		if n.isMaster() {
			n.rt.finishTask(t, place)
			return
		}
		panic(fmt.Sprintf("core: no completion action for %v on node %d", t, n.id))
	}
	delete(n.onDone, t.ID)
	done(p, t, place)
}

// gpuManagerLoop is the GPU manager thread of device g (Section III.D.2):
// it pops CUDA tasks, stages their data, launches kernels, optionally
// prefetches the next task's data during the kernel, and applies the cache
// write policy afterwards.
func (n *nodeRT) gpuManagerLoop(p *sim.Proc, g int) {
	place := 1 + g
	var popped *task.Task
	wait := n.idleWait(p, func() bool {
		popped = n.sch.Pop(place)
		return popped != nil
	}, n.isStopping)
	for {
		var t *task.Task
		if n.prefetched[g] != nil {
			t, n.prefetched[g] = n.prefetched[g], nil
		} else {
			if !wait() {
				return
			}
			// A copy: the next wait overwrites popped, and the closures
			// below keep t.
			t = popped
			n.sampleSchedDepth(p.Now())
			p.Sleep(taskOverhead)
			n.registerReduction(t)
			stageStart := p.Now()
			stage := n.rt.cfg.Trace.Begin(trace.Stage, t.Name, n.id, g, stageStart)
			n.stageRegions(p, t, g)
			stage.EndNonEmpty(p.Now())
			n.met.stageNS.Observe(sim.Duration(p.Now() - stageStart))
		}
		dev := n.devs[g]
		cost := jitter(t.ID, t.Work.GPUCost(dev.Spec()))
		// Claim this kernel's power delta before launching; under a cap the
		// claim may defer the launch until running kernels retire.
		powerDelta := n.spec.GPUs[g].Power.Delta()
		n.rt.gov.acquire(p, t.Name, n.id, g, powerDelta)
		kernelStart := p.Now()
		kernel := n.rt.cfg.Trace.Begin(trace.TaskRun, t.Name, n.id, g, kernelStart)
		kernelDone := dev.LaunchAsync(cost, func(devStore *memspace.Store) {
			if n.rt.cfg.Validate {
				n.runBody(t, devStore)
			}
		})
		if n.rt.cfg.Prefetch {
			// Once a kernel is launched, request the next task and start
			// moving its data so it is resident by the time it can run.
			if nt := n.sch.Pop(place); nt != nil {
				n.met.prefetchPops.Inc()
				if n.tryStage(p, nt, g) {
					n.met.prefetchStaged.Inc()
					n.prefetched[g] = nt
				} else {
					// Not enough free memory alongside the running task:
					// give the task back.
					n.sch.Submit(nt, -1)
				}
			}
		}
		kernelDone.Wait(p)
		n.rt.gov.release(powerDelta)
		kernel.EndTask(p.Now(), int64(t.ID))
		n.met.taskRunNS.Observe(sim.Duration(p.Now() - kernelStart))
		n.publishGPUTask(p, g, t)
		if t.Spawner != nil {
			// Detached: the nested tasks need this very GPU manager.
			n.rt.e.Go("spawner:"+t.Name, func(sp *sim.Proc) {
				n.runSpawner(sp, t)
				n.met.tasksCUDA.Inc()
				n.completeLocal(sp, t, 1+g)
			})
			continue
		}
		n.met.tasksCUDA.Inc()
		n.completeLocal(p, t, 1+g)
	}
}

// publishGPUTask applies the write policy and releases t's pins; the
// caller completes the task (possibly after a nested extent).
func (n *nodeRT) publishGPUTask(p *sim.Proc, g int, t *task.Task) {
	loc := memspace.GPU(n.id, g)
	cache := n.caches[g]
	copies := t.Copies()
	for _, c := range copies {
		if !c.Access.Writes() {
			continue // In and Red accesses publish nothing at task end
		}
		n.produced(c.Region, loc)
		cache.MarkDirty(c.Region)
	}
	switch n.rt.cfg.CachePolicy {
	case coherence.WriteBack:
		// Dirty lines stay on the device until eviction or flush.
	case coherence.WriteThrough, coherence.NoCache:
		// Propagate every write to host memory immediately.
		for _, c := range copies {
			if c.Access.Writes() {
				n.writeBackLine(p, g, c.Region)
			}
		}
	}
	for _, c := range copies {
		cache.Unpin(c.Region)
	}
	if n.rt.cfg.CachePolicy == coherence.NoCache {
		// Emulate moving data in and out always: nothing stays resident —
		// except reduction partials, which must survive until combined.
		for _, c := range copies {
			if _, reducing := n.redPartials[c.Region]; reducing {
				continue
			}
			if cache.Contains(c.Region) {
				n.dropLine(g, c.Region)
			}
		}
	}
}

// jitter applies the deterministic per-task duration variation.
func jitter(id task.ID, d time.Duration) time.Duration {
	// Cheap integer hash of the task id; uniform in [0, 1).
	h := uint64(id) * 0x9e3779b97f4a7c15
	frac := float64(h>>40) / float64(1<<24)
	return d + time.Duration(float64(d)*kernelJitter*frac)
}

// overlappingRedRegions returns the pending reduction regions overlapping
// r, in deterministic region order.
func (n *nodeRT) overlappingRedRegions(r memspace.Region) []memspace.Region {
	if len(n.redPartials) == 0 {
		return nil // every call outside a reduction phase
	}
	var out []memspace.Region
	for _, k := range detmap.KeysFunc(n.redPartials, regionLess) {
		if k.Overlaps(r) {
			out = append(out, k)
		}
	}
	return out
}

// produced records a new version of r at loc and drops stale copies from
// this image's caches. Uncombined reduction partials overlapping r are
// obsolete once a new version exists and are discarded.
func (n *nodeRT) produced(r memspace.Region, loc memspace.Location) {
	for _, rr := range n.overlappingRedRegions(r) {
		gpus := n.redPartials[rr]
		delete(n.redPartials, rr)
		delete(n.redCombiners, rr)
		// Release the reduction-phase pins; the stale-copy sweep below
		// removes the obsolete partial lines (except the producer's own,
		// which the new version is being written into).
		for _, g := range gpus {
			n.caches[g].Unpin(rr)
		}
	}
	n.dir.Produced(r, loc)
	if n.isMaster() {
		// Every version bump on the master image is a directory update
		// served asynchronously by the owning shard's queue, issued from
		// the producing node (the slave notifies the owning manager
		// directly in the distributed design).
		n.rt.mgrChargeUpdate(n.rt.e.Now(), loc.Node, r)
	}
	for g, c := range n.caches {
		if c.Location() == loc {
			continue
		}
		for _, l := range c.OverlappingLines(r) {
			// Only lines fully covered by r are swept: a partially
			// overlapped line still holds the current bytes outside r
			// (possibly the sole dirty copy); its staleness inside r is
			// tracked by the directory and discovered at staging.
			if !r.Contains(l.Region) {
				continue
			}
			c.Remove(l.Region)
			if s := n.devs[g].Store(); s != nil {
				s.Drop(l.Region)
			}
		}
	}
}

// stageRegions is tryStage for a task that must run here: a working set
// that cannot fit is a program error.
func (n *nodeRT) stageRegions(p *sim.Proc, t *task.Task, g int) {
	if !n.tryStage(p, t, g) {
		panic(fmt.Sprintf("core: task working set does not fit at %v", n.placeLoc(1+g)))
	}
}

// tryStage makes every copy region of a task valid at the destination (GPU
// g, or the host when g == hostDevKey), pinning GPU lines. With the
// non-blocking cache the transfers run concurrently. It returns false, with
// no pin left behind, when space cannot be made on the GPU.
func (n *nodeRT) tryStage(p *sim.Proc, t *task.Task, g int) bool {
	copies := t.Copies()
	// On the master, a region whose lost version is being rebuilt lists
	// the master host as holder of a stale base; staging must wait out the
	// rebuild. The replayed producers themselves are exempt — that base is
	// exactly the input their re-run needs.
	fence := n.isMaster() && n.rt.ft != nil && !n.rt.isRecoveryTask(t)
	if g == hostDevKey {
		for _, c := range copies {
			if fence && c.Access.Reads() {
				n.rt.waitRestore(p, c.Region)
			}
			if c.Access == task.Red {
				// SMP reduction tasks accumulate straight into the host
				// copy, which must be valid — but other participants'
				// partials are NOT combined yet (reductions commute; the
				// graph only orders the eventual reader after all of them).
				n.fetchToHostInner(p, c.Region, false)
				continue
			}
			if c.Access.Reads() {
				n.fetchToHost(p, c.Region)
			}
		}
		return true
	}
	cache := n.caches[g]
	loc := memspace.GPU(n.id, g)
	var fetch []memspace.Region
	// Phase 1: residency and allocation decisions (synchronous bookkeeping).
	for _, c := range copies {
		r := c.Region
		if c.Access == task.Red {
			n.stageReduction(g, r)
			continue
		}
		if line := cache.Lookup(r); line != nil {
			if n.dir.IsHolder(r, loc) || !c.Access.Reads() {
				cache.Pin(r)
				continue
			}
			// Resident but stale on some fragment. A partially invalidated
			// line can still carry the sole dirty copy of its surviving
			// fragments — write those back before dropping (no-op for a
			// clean line, the only shape under exact-match regions).
			if line.Dirty {
				n.writeBackLine(p, g, r)
			}
			if cache.Contains(r) {
				n.dropLine(g, r)
			}
		}
		victims, ok := cache.MakeSpace(r.Size)
		if !ok {
			// Undo pins taken so far.
			for _, d := range copies {
				if d.Region == r {
					break
				}
				cache.Unpin(d.Region)
			}
			return false
		}
		for _, v := range victims {
			n.evictLine(p, g, v)
		}
		cache.Insert(r, false)
		cache.Pin(r)
		if c.Access.Reads() && n.dir.Known(r) {
			fetch = append(fetch, r)
		}
	}
	// Phase 2: data movement.
	return n.rt.moveEach(p, "stage", n.rt.cfg.NonBlockingCache, fetch, func(sp *sim.Proc, r memspace.Region) bool {
		if fence {
			n.rt.waitRestore(sp, r)
		}
		n.fetchToGPU(sp, g, r)
		return true
	})
}

// evictLine writes back a dirty victim and removes it. Replacement under
// pressure pays a fixed bookkeeping cost on top of the writeback. The
// bookkeeping and writeback take virtual time, during which a task
// completing on another device may invalidate the victim; the line is
// re-checked after every blocking step.
func (n *nodeRT) evictLine(p *sim.Proc, g int, l *coherence.Line) {
	p.Sleep(evictionOverhead)
	if !n.caches[g].Contains(l.Region) {
		return // invalidated while we slept
	}
	if l.Dirty {
		n.writeBackLine(p, g, l.Region)
		if !n.caches[g].Contains(l.Region) {
			return
		}
	}
	n.dropLine(g, l.Region)
}

// dropLine removes r from GPU g's cache and directory holders. Holder
// registration is per device, not per line: fragments of r still covered
// by another resident line of the same GPU (overlapping lines share their
// bytes) stay held and keep their backing store. Under exact-match
// regions no lines overlap and this degenerates to dropping r whole.
func (n *nodeRT) dropLine(g int, r memspace.Region) {
	loc := memspace.GPU(n.id, g)
	cache := n.caches[g]
	cache.Remove(r)
	pieces := n.dir.Held(r, loc)
	for _, l := range cache.OverlappingLines(r) {
		var next []memspace.Region
		for _, pc := range pieces {
			next = append(next, pc.Subtract(l.Region)...)
		}
		pieces = next
	}
	s := n.devs[g].Store()
	for _, pc := range pieces {
		if s != nil {
			s.Drop(pc)
		}
		n.dir.DropHolder(pc, loc)
	}
}

// writeBackLine copies GPU g's version of r to the host and marks the host
// a holder. Only the fragments the GPU actually holds are copied: a line
// partially invalidated by an overlapping producer elsewhere must not
// clobber the host with its stale part. Under exact-match regions the GPU
// holds the whole line and this is a single whole-region copy.
func (n *nodeRT) writeBackLine(p *sim.Proc, g int, r memspace.Region) {
	loc := memspace.GPU(n.id, g)
	for _, frag := range n.dir.Held(r, loc) {
		wb := n.rt.cfg.Trace.Begin(trace.XferD2H, "writeback", n.id, g, p.Now())
		n.devs[g].Copy(p, gpusim.D2H, frag, n.hostStore, false)
		wb.EndRegion(p.Now(), frag.Addr, frag.Size)
		n.dir.AddHolder(frag, memspace.Host(n.id))
		n.rt.met.writebacks.Inc()
	}
	n.caches[g].Clean(r)
}

// fetchToGPU brings the current version of r into GPU g, assuming the cache
// line is already allocated and pinned. Concurrent fetches of the same
// region to the same device coalesce.
func (n *nodeRT) fetchToGPU(p *sim.Proc, g int, r memspace.Region) {
	loc := memspace.GPU(n.id, g)
	if n.joinInflight(p, r, loc) || n.dir.IsHolder(r, loc) {
		return
	}
	defer n.leadInflight(r, loc)()
	// The data must be in this node's host memory first (Fermi-era CUDA:
	// no peer-to-peer; remote data arrives over the wire into the host).
	n.fetchToHost(p, r)
	xfer := n.rt.cfg.Trace.Begin(trace.XferH2D, "fetch", n.id, g, p.Now())
	n.devs[g].Copy(p, gpusim.H2D, r, n.hostStore, false)
	xfer.EndRegion(p.Now(), r.Addr, r.Size)
	n.dir.AddHolder(r, loc)
}

// fetchToHost makes this node's host memory hold the current, fully
// combined version of r.
func (n *nodeRT) fetchToHost(p *sim.Proc, r memspace.Region) {
	n.fetchToHostInner(p, r, true)
}

func (n *nodeRT) fetchToHostInner(p *sim.Proc, r memspace.Region, combine bool) {
	for {
		if n.fetchToHostOnce(p, r, combine) {
			return
		}
		// A holder died mid-pull (or we piggybacked on a transfer that
		// failed): wait out any rebuild of r, then retry against the
		// updated directory.
		n.rt.waitRestore(p, r)
	}
}

func (n *nodeRT) fetchToHostOnce(p *sim.Proc, r memspace.Region, combine bool) bool {
	host := memspace.Host(n.id)
	if n.joinInflight(p, r, host) {
		// Without fault tolerance the fetch we piggybacked on always
		// succeeded; with it, it may have failed — re-evaluate.
		return n.rt.ft == nil
	}
	if combine {
		for _, rr := range n.overlappingRedRegions(r) {
			n.combineReduction(p, rr)
		}
	}
	// The directory says which subranges of r the host is missing; each is
	// pulled from its own holder. Under exact-match regions this is either
	// nothing or r itself — the seed's single-transfer path.
	missing := n.dir.Missing(r, host)
	if len(missing) == 0 {
		return true
	}
	defer n.leadInflight(r, host)()
	fragmented := len(missing) > 1 || missing[0] != r
	if fragmented {
		n.met.fragAssemblies.Inc()
	}
	// The fragment list is fixed for the attempt; the source of each is
	// chosen when its turn comes, from the holders it has by then.
	for _, frag := range missing {
		holders := n.dir.Holders(frag)
		// Prefer a local GPU (cheap D2H) over a remote node.
		fetched := false
		for _, h := range holders {
			if h.Node == n.id && !h.IsHost() {
				var asm trace.Open
				if fragmented {
					asm = n.rt.cfg.Trace.Begin(trace.XferD2H, "assemble", n.id, h.Dev, p.Now())
				}
				n.devs[h.Dev].Copy(p, gpusim.D2H, frag, n.hostStore, false)
				if fragmented {
					asm.EndRegion(p.Now(), frag.Addr, frag.Size)
				}
				n.caches[h.Dev].Clean(frag)
				n.dir.AddHolder(frag, host)
				n.rt.met.writebacks.Inc()
				fetched = true
				break
			}
		}
		if fetched {
			continue
		}
		// Remote holder: pull across the network (cluster layer).
		src := pickSource(holders, n.id, n.rt.cfg.SlaveToSlave, n.rt.nodeIsDead)
		if src == srcHeld {
			continue // an overlapping fetch landed it here meanwhile
		}
		if src != srcLost && !n.isMaster() {
			panic(fmt.Sprintf("core: node %d asked to fetch %v it does not hold", n.id, frag))
		}
		// Lost between the Missing query and now (holder died), or the pull
		// failed: let the caller wait out the rebuild and retry.
		if src == srcLost || !n.rt.xfer(p, frag, src, 0) {
			return false
		}
	}
	return true
}

// stageReduction prepares GPU g's private accumulator for region r: a
// zero-initialized cache line on first use (the reduction identity), the
// existing partial on subsequent tasks. The line carries an extra pin for
// the whole reduction phase so replacement cannot clobber a partial.
func (n *nodeRT) stageReduction(g int, r memspace.Region) {
	cache := n.caches[g]
	if cache.Contains(r) {
		cache.Pin(r)
		return
	}
	victims, ok := cache.MakeSpace(r.Size)
	if !ok {
		panic(fmt.Sprintf("core: reduction accumulator %v does not fit on %v", r, cache.Location()))
	}
	for _, v := range victims {
		// Eviction work is bookkeeping-only here; reductions are staged
		// synchronously (no blocking point is acceptable mid-registration).
		if v.Dirty {
			panic("core: reduction staging would evict a dirty line; enlarge the cache headroom")
		}
		n.dropLine(g, v.Region)
	}
	cache.Insert(r, false)
	cache.Pin(r) // task pin, released at retire
	cache.Pin(r) // reduction-phase pin, released at combine
	if s := n.devs[g].Store(); s != nil {
		s.Drop(r) // fresh zeroed bytes: the reduction identity
	}
	n.redPartials[r] = append(n.redPartials[r], g)
}

// registerReduction records the combiner for each Red dependence of t.
func (n *nodeRT) registerReduction(t *task.Task) {
	for _, d := range t.Deps {
		if d.Access != task.Red {
			continue
		}
		c, ok := t.Reductions[d.Region.Addr]
		if !ok {
			panic(fmt.Sprintf("core: %v has a reduction dependence on %v but no combiner", t, d.Region))
		}
		n.redCombiners[d.Region] = c
	}
}

// combineReduction folds every GPU partial of r into the host copy and
// releases the accumulators. Runs before the first post-reduction reader;
// the dependency graph guarantees all reduction tasks have finished.
func (n *nodeRT) combineReduction(p *sim.Proc, r memspace.Region) {
	gpus := n.redPartials[r]
	delete(n.redPartials, r)
	combiner := n.redCombiners[r]
	delete(n.redCombiners, r)
	for _, g := range gpus {
		partial := n.devs[g].ReadBack(p, r)
		// Host-side fold cost.
		p.Sleep(time.Duration(float64(r.Size) / n.spec.HostMemBandwidth * 1e9))
		// The host buffer is re-fetched per fold: an unrelated overlapping
		// Bytes call during the sleep may have re-based the backing extent.
		if acc := n.hostStore.Bytes(r); acc != nil && partial != nil && combiner != nil {
			combiner(acc, partial)
		}
		n.caches[g].Unpin(r)
		n.dropLine(g, r)
		n.rt.met.writebacks.Inc()
	}
	// The host copy is now the combined current version.
	n.produced(r, memspace.Host(n.id))
}
