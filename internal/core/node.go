package core

import (
	"fmt"
	"slices"
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

	places     int                                         // 0 = CPU pool, 1..G = GPUs, master adds G+1..G+K remote
	stageHere  func(r memspace.Region, then func(ok bool)) // stageToNode into this node, bound once
	workSignal *sim.Signal                                 // broadcast whenever work may have appeared
	stopping   bool

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
	// combined into the host copy before the next task that touches them
	// (fetchToHost); folding is set while they are, and readers wait for it.
	redPartials  map[memspace.Region][]int
	redCombiners map[memspace.Region]task.Combiner
	folding      *sim.Event

	// scores and estimates are the per-place slices affinityScore and
	// placeEstimates return, reused: the scheduler reads each before its
	// next call.
	scores    []uint64
	estimates []sched.Estimate

	// Tasks run here, by device, and staged regions gathered from more
	// than one holder fragment.
	tasksSMP, tasksCUDA, fragAssemblies int
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

// joinInflight returns the event that ends a transfer of r into dst already
// under way, nil when there is none; the first joiner makes it.
func (n *nodeRT) joinInflight(r memspace.Region, dst memspace.Location) *sim.Event {
	key := inflightKey{r, dst}
	ev, busy := n.inflight[key]
	if busy && ev == nil {
		ev = sim.NewEvent(n.rt.e)
		n.inflight[key] = ev
	}
	return ev
}

// leadInflight announces the caller's transfer of r into dst; endInflight
// ends it and wakes whoever joined.
func (n *nodeRT) leadInflight(r memspace.Region, dst memspace.Location) {
	n.inflight[inflightKey{r, dst}] = nil
}

func (n *nodeRT) endInflight(r memspace.Region, dst memspace.Location) {
	key := inflightKey{r, dst}
	if ev := n.inflight[key]; ev != nil {
		ev.Trigger()
	}
	delete(n.inflight, key)
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
		stageHere:    func(r memspace.Region, then func(bool)) { rt.stageToNode(r, id, then) },
	}
	if rt.plane != nil {
		n.hostStore = memspace.NewStore(memspace.Host(id))
	}
	n.hostStore.UsePlane(rt.plane)
	n.ep = gasnet.NewEndpoint(rt.fabric, id, n.hostStore)
	for g, gs := range spec.GPUs {
		n.devs = append(n.devs, gpusim.New(rt.e, gs, memspace.GPU(id, g), rt.cfg.Overlap, rt.cfg.Validate))
		n.devs[g].Store().UsePlane(rt.plane)
		capacity := uint64(float64(gs.MemBytes) * (1 - rt.cfg.GPUCacheHeadroom))
		n.caches = append(n.caches, coherence.NewCache(memspace.GPU(id, g), capacity))
	}
	n.places = 1 + len(spec.GPUs)
	n.scores, n.estimates = make([]uint64, n.places), make([]sched.Estimate, n.places)
	// A node's places steal from each other's queues, as the paper's
	// affinity scheduler does; the cluster level never does (see New).
	n.sch = sched.New(rt.cfg.Scheduler, n.places, sched.Options{
		Score: n.affinityScore, Cost: n.placeEstimates, Rank: rt.upwardRank, Steal: true,
		CanRun: n.canRun, Accepts: n.accepts})
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

// sampleSchedDepth records the scheduler's queue depth as a Perfetto
// counter row. No-op when tracing is off.
func (n *nodeRT) sampleSchedDepth(now sim.Time) {
	tr := n.rt.cfg.Trace
	if tr == nil {
		return
	}
	tr.Count("sched_queue_depth", n.id, now, int64(n.sch.Len()))
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
	copies := t.Copies()
	// Inputs must be valid in host memory (SMP tasks use copy clauses too).
	n.stageRegions(p, t, hostDevKey)
	run := n.rt.cfg.Trace.Begin(trace.TaskRun, t.Name, n.id, -1, p.Now())
	p.Sleep(jitter(t.ID, t.Work.CPUCost(n.spec)))
	run.EndTask(p.Now(), int64(t.ID))
	if n.rt.cfg.Validate {
		n.runBody(t)
	}
	// The parent's own outputs are published before any nested tasks run,
	// so children can read what the parent computed; children then publish
	// their own writes on top.
	for _, c := range copies {
		if c.Access.Writes() {
			n.produced(c.Region, memspace.Host(n.id))
		}
	}
	n.finish(p, t, 0)
}

// finish retires t, run at place (0 for the host, 1+g for GPU g): it
// counts, then its completion action runs. A spawner first blocks until
// its nested tasks drain, detached so this executor can run those very
// tasks (a parent waiting on its children must not occupy the only
// executor).
func (n *nodeRT) finish(p *sim.Proc, t *task.Task, place int) {
	if t.Spawner() != nil {
		n.rt.e.Go("spawner:"+t.Name, func(sp *sim.Proc) {
			n.runSpawner(sp, t)
			n.count(place)
			n.completeLocal(sp, t, place)
		})
		return
	}
	n.count(place)
	n.completeLocal(p, t, place)
}

func (n *nodeRT) count(place int) {
	if place == 0 {
		n.tasksSMP++
	} else {
		n.tasksCUDA++
	}
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
			stage := n.rt.cfg.Trace.Begin(trace.Stage, t.Name, n.id, g, p.Now())
			n.stageRegions(p, t, g)
			stage.EndNonEmpty(p.Now())
		}
		dev := n.devs[g]
		cost := jitter(t.ID, t.Work.GPUCost(dev.Spec()))
		// Claim this kernel's power delta before launching; under a cap the
		// claim may defer the launch until running kernels retire.
		powerDelta := n.spec.GPUs[g].Power.Delta()
		n.rt.gov.acquire(p, t.Name, n.id, g, powerDelta)
		kernel := n.rt.cfg.Trace.Begin(trace.TaskRun, t.Name, n.id, g, p.Now())
		var body func(*memspace.Store)
		if n.rt.cfg.Validate {
			body = guarded(t)
		}
		kernelDone := dev.LaunchAsync(cost, body)
		if n.rt.cfg.Prefetch {
			// Once a kernel is launched, request the next task and start
			// moving its data so it is resident by the time it can run.
			if nt := n.sch.Pop(place); nt != nil {
				if n.tryStage(p, nt, g) {
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
		n.publishGPUTask(p, g, t)
		n.finish(p, t, place)
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
		if n.rt.cfg.CachePolicy == coherence.NoCache {
			// Emulate moving data in and out always: nothing stays
			// resident but what a task pins, reduction partials included.
			n.dropLine(g, c.Region)
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
// this image's caches.
func (n *nodeRT) produced(r memspace.Region, loc memspace.Location) {
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
			if r.Contains(l.Region) {
				n.dropLine(g, l.Region)
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
	n.registerReduction(t)
	copies := t.Copies()
	// On the master, a region whose lost version is being rebuilt lists
	// the master host as holder of a stale base; staging must wait out the
	// rebuild.
	fence := n.isMaster() && n.rt.ft != nil
	for _, c := range copies {
		// Pending reduction partials are contributions the directory does
		// not know of: a task that touches them, other than by adding one,
		// has them folded first, and waits out a fold under way.
		if c.Access != task.Red && (n.folding != nil || len(n.overlappingRedRegions(c.Region)) > 0) {
			p.Await("staging", func(done func(bool)) { n.fetchToHost(c.Region, true, done) })
		}
	}
	if g == hostDevKey {
		for _, c := range copies {
			if fence && c.Access.Reads() {
				p.Await("staging", func(done func(bool)) { n.rt.waitRestore(c.Region, done) })
			}
			// SMP reduction tasks accumulate straight into the host copy,
			// which must be valid — but other participants' partials are
			// NOT combined yet (reductions commute; the graph only orders
			// the eventual reader after all of them). Once they add to it,
			// no other copy is current.
			if red := c.Access == task.Red; red || c.Access.Reads() {
				p.Await("staging", func(done func(bool)) { n.fetchToHost(c.Region, !red, done) })
				if red {
					n.produced(c.Region, memspace.Host(n.id))
				}
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
		red := c.Access == task.Red
		if red {
			if slices.Contains(n.redPartials[r], g) {
				cache.Pin(r) // this GPU's partial, which the task adds to
				continue
			}
			// A new accumulator takes over r's device bytes: the host holds
			// the version the fold adds to, and this GPU none of r.
			p.Await("staging", func(done func(bool)) { n.fetchToHost(r, false, done) })
			for _, pc := range n.dir.Held(r, loc) {
				n.dir.DropHolder(pc, loc)
			}
			n.dropLine(g, r)
		} else if line := cache.Lookup(r); line != nil {
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
			n.dropLine(g, r)
			if cache.Contains(r) {
				// Pinned by another task, so stale only by a duplicate
				// arrival of the version it holds (DESIGN §7): use it.
				cache.Pin(r)
				continue
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
		if red {
			cache.Pin(r) // the reduction phase's, released at the fold
			if s := n.devs[g].Store(); s != nil {
				memspace.Do(func() { s.Drop(r) }, s) // fresh zeroed bytes: the reduction identity
			}
			n.redPartials[r] = append(n.redPartials[r], g)
		} else if c.Access.Reads() && n.dir.Known(r) {
			fetch = append(fetch, r)
		}
	}
	// Phase 2: data movement.
	move := func(r memspace.Region, done func(bool)) { n.fetchToGPU(g, r, done) }
	if fence {
		move = func(r memspace.Region, done func(bool)) {
			n.rt.waitRestore(r, func(bool) { n.fetchToGPU(g, r, done) })
		}
	}
	return p.Await("staging", func(done func(bool)) { n.rt.moveEach(n.rt.cfg.NonBlockingCache, fetch, move, done) })
}

// evictLine writes back a dirty victim and removes it. Replacement under
// pressure pays a fixed bookkeeping cost on top of the writeback. A task
// completing elsewhere meanwhile may sweep the victim; the GPU then holds
// none of it, so the writeback copies nothing and the drop finds no line.
func (n *nodeRT) evictLine(p *sim.Proc, g int, l *coherence.Line) {
	p.Sleep(evictionOverhead)
	if l.Dirty {
		n.writeBackLine(p, g, l.Region)
	}
	n.dropLine(g, l.Region)
}

// dropLine removes r from GPU g's cache and directory holders, and is the
// only way a line leaves a cache: it does nothing when r is not resident
// or a task pins it (Section III.C replaces only unpinned lines). Holder
// registration is per device, not per line: fragments of r still covered
// by another resident line of the same GPU (overlapping lines share their
// bytes) stay held. Under exact-match regions no lines overlap and this
// degenerates to dropping r whole. It is bookkeeping only: the device
// keeps its bytes, and a D2H that completes after the drop lands only what
// the directory still calls current (plan.copied).
func (n *nodeRT) dropLine(g int, r memspace.Region) {
	loc := memspace.GPU(n.id, g)
	cache := n.caches[g]
	if !cache.Contains(r) || cache.Pinned(r) {
		return
	}
	cache.Remove(r)
	pieces := n.dir.Held(r, loc)
	for _, l := range cache.OverlappingLines(r) {
		var next []memspace.Region
		for _, pc := range pieces {
			next = append(next, pc.Subtract(l.Region)...)
		}
		pieces = next
	}
	for _, pc := range pieces {
		n.dir.DropHolder(pc, loc)
	}
}

// writeBackLine makes the host hold GPU g's version of r, through the host
// plan (fetchToHost) for each fragment the GPU holds: a line partially
// invalidated by an overlapping producer elsewhere must not clobber the
// host with its stale part. Under exact-match regions the GPU holds the
// whole line and this is a single whole-region copy.
func (n *nodeRT) writeBackLine(p *sim.Proc, g int, r memspace.Region) {
	for _, frag := range n.dir.Held(r, memspace.GPU(n.id, g)) {
		p.Await("writeback", func(done func(bool)) { n.fetchToHost(frag, false, done) })
	}
	n.caches[g].Clean(r)
}

// fetchToGPU brings the current version of r into GPU g, assuming the cache
// line is already allocated and pinned, then runs then. Concurrent fetches
// of the same region to the same device coalesce. The H2D is timed for all
// of r, but lands only the pieces the GPU does not already hold current.
func (n *nodeRT) fetchToGPU(g int, r memspace.Region, then func(bool)) {
	loc := memspace.GPU(n.id, g)
	if ev := n.joinInflight(r, loc); ev != nil {
		ev.WaitFunc(func() { then(true) })
		return
	}
	if n.dir.IsHolder(r, loc) {
		then(true)
		return
	}
	n.leadInflight(r, loc)
	// The data must be in this node's host memory first (Fermi-era CUDA:
	// no peer-to-peer; remote data arrives over the wire into the host).
	n.fetchToHost(r, true, func(bool) {
		xfer := n.rt.cfg.Trace.Begin(trace.XferH2D, "fetch", n.id, g, n.rt.e.Now())
		n.devs[g].CopyAsync(gpusim.H2D, r, nil).WaitFunc(func() {
			xfer.EndRegion(n.rt.e.Now(), r.Addr, r.Size)
			if dev := n.devs[g].Store(); dev != nil {
				// Coalesced: adjacent pieces land as one extent, not several
				// that the kernel's first Bytes call would merge again.
				for _, pc := range memspace.Canonicalize(n.dir.Missing(r, loc, nil)) {
					memspace.CopyRegion(dev, n.hostStore, pc)
				}
			}
			n.dir.AddHolder(r, loc)
			n.endInflight(r, loc)
			then(true)
		})
	})
}

// registerReduction records the combiner for each Red dependence of t.
func (n *nodeRT) registerReduction(t *task.Task) {
	for _, d := range t.Deps {
		if d.Access != task.Red {
			continue
		}
		c, ok := t.Reductions()[d.Region.Addr]
		if !ok {
			panic(fmt.Sprintf("core: %v has a reduction dependence on %v but no combiner", t, d.Region))
		}
		n.redCombiners[d.Region] = c
	}
}

// combineReductions folds every GPU partial of each region in rrs into the
// host copy and releases the accumulators, one region and one GPU after
// the other, then runs then. Runs before the first post-reduction task
// that touches them; the dependency graph guarantees all reduction tasks
// have finished.
func (n *nodeRT) combineReductions(rrs []memspace.Region, then func(bool)) {
	if len(rrs) == 0 {
		if folding := n.folding; folding != nil {
			n.folding = nil
			folding.Trigger()
		}
		then(true)
		return
	}
	if n.folding == nil {
		n.folding = sim.NewEvent(n.rt.e)
	}
	r := rrs[0]
	gpus := n.redPartials[r]
	delete(n.redPartials, r)
	combiner := n.redCombiners[r]
	delete(n.redCombiners, r)
	var fold func(i int)
	fold = func(i int) {
		if i == len(gpus) {
			// The host copy is now the combined current version.
			n.produced(r, memspace.Host(n.id))
			n.combineReductions(rrs[1:], then)
			return
		}
		g := gpus[i]
		// The partial leaves by the D2H every GPU→host copy takes, timed
		// with no host store: the fold reads it in place on the device.
		n.devs[g].CopyAsync(gpusim.D2H, r, nil).WaitFunc(func() {
			// Host-side fold cost.
			n.rt.e.After(time.Duration(float64(r.Size)/n.spec.HostMemBandwidth*1e9), func() {
				// Both buffers are fetched at the fold, an op on both stores:
				// an unrelated overlapping Bytes call before it may have
				// re-based a backing extent.
				if dev, host := n.devs[g].Store(), n.hostStore; dev != nil && combiner != nil {
					memspace.Do(func() { combiner(host.Bytes(r), dev.Bytes(r)) }, host, dev)
				}
				n.caches[g].Unpin(r)
				n.dropLine(g, r)
				n.rt.writebacks++
				fold(i + 1)
			})
		})
	}
	fold(0)
}
