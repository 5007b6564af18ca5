package core

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// Runtime is one simulated machine running one OmpSs application.
type Runtime struct {
	e      *sim.Engine
	cfg    Config
	fabric *netsim.Fabric
	nodes  []*nodeRT
	alloc  *memspace.Allocator

	taskSeq  task.ID
	graph    *depgraph.Graph
	pending  int
	idleEvt  *sim.Event
	taskDone map[task.ID]*sim.Event // made when TaskWaitOn waits, not per task

	// rankMemo caches upward ranks for the HEFT cost model (costmodel.go).
	rankMemo map[task.ID]time.Duration

	// gov is the cluster power governor: always metering, throttling only
	// when Config.PowerCapWatts is set (power.go).
	gov *powerGov

	// releasePlace is the place whose finishing task is currently being
	// retired; the graph's onReady callback reads it to tag released
	// successors for the "dependencies" policy.
	releasePlace int

	// met holds the cross-cutting instruments not owned by a device or
	// interface; they live in cfg.Metrics and are readable mid-run.
	met *rtMetrics

	// cl and clSch are the cluster-level dispatch state and scheduler (nil
	// on single-node machines): place k is node k, place 0 the master node
	// itself.
	cl    *clusterState
	clSch sched.Scheduler

	// ft is the fault-injection/fault-tolerance state (nil unless
	// Config.Faults is set; every fault path is gated on it).
	ft *ftState

	// mgr is the distributed-manager cost model (manager.go); the defaults
	// are one shard on the master at zero op cost, which charges nothing.
	mgr *mgrState

	// userErr records the first user-program error (malformed dependence
	// clauses, missing combiners). The offending task is not submitted;
	// Run surfaces the error after the engine drains.
	userErr error

	stopped bool
}

// fail records the first user-program error.
func (rt *Runtime) fail(err error) {
	if rt.userErr == nil {
		rt.userErr = err
	}
}

// New builds a runtime over a fresh simulation engine.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	e := sim.NewEngine()
	rt := &Runtime{
		e:            e,
		cfg:          cfg,
		alloc:        memspace.NewAllocator(),
		taskDone:     make(map[task.ID]*sim.Event),
		rankMemo:     make(map[task.ID]time.Duration),
		releasePlace: -1,
		met:          newRTMetrics(cfg.Metrics),
	}
	capW := cfg.PowerCapWatts
	if capW <= 0 {
		capW = math.Inf(1)
	}
	rt.gov = newPowerGov(rt, capW)
	rt.fabric = netsim.New(e, cfg.Cluster.Net, len(cfg.Cluster.Nodes))
	for i, spec := range cfg.Cluster.Nodes {
		rt.nodes = append(rt.nodes, newNodeRT(rt, i, spec))
	}
	if len(rt.nodes) > 1 {
		// No work stealing between node queues at the cluster level: the
		// paper's runtime does not steal between slave nodes (III.D.1), and
		// cluster-level steals would migrate a task's data with it.
		rt.clSch = sched.New(cfg.Scheduler, len(rt.nodes), sched.Options{
			Score: rt.clusterScore, Cost: rt.clusterCostModel(),
			CanRun: rt.clusterCanRun, Accepts: rt.clusterAccepts, Hooks: schedHooks(cfg.Metrics, "cluster")})
		rt.cl = &clusterState{outstanding: make([]int, len(rt.nodes)), xferEvents: make(map[int64]*sim.Event),
			scores: make([]uint64, len(rt.nodes)), estimates: make([]sched.Estimate, len(rt.nodes))}
	}
	rt.mgr = newMgrState(cfg, rt.met)
	rt.registerDirOpHandlers()
	if cfg.Faults != nil {
		rt.armFaultTolerance()
	}
	rt.graph = depgraph.New(rt.onReady)
	if cfg.Trace != nil {
		// Mirror every dependence arc into the trace so the critical-path
		// analyzer sees the graph the scheduler saw.
		rt.graph.OnArc = func(pred, succ task.ID) { cfg.Trace.Edge(int64(pred), int64(succ)) }
	}
	rt.idleEvt = sim.NewEvent(e)
	rt.idleEvt.Trigger() // no tasks yet
	return rt
}

func (rt *Runtime) master() *nodeRT { return rt.nodes[0] }

// onReady fires inside Submit/Finished when a task's dependencies resolve.
// On a cluster the ready task enters the cluster-level pool; on a single
// node it goes straight to the local scheduler.
func (rt *Runtime) onReady(t *task.Task) {
	if rt.clSch != nil {
		rt.clSch.Submit(t, rt.releasePlace)
	} else {
		rt.master().sch.Submit(t, rt.releasePlace)
	}
	rt.master().signalWork()
}

// newTaskID mints the next task id.
func (rt *Runtime) newTaskID() task.ID {
	rt.taskSeq++
	return rt.taskSeq
}

// submitBatch registers a slice of tasks with the dependency graph, with
// per-task outcomes identical to submitting each in turn: a task with
// malformed clauses is skipped (first error recorded), the rest still
// enter the graph.
func (rt *Runtime) submitBatch(ts []*task.Task) error {
	if len(ts) == 0 {
		return nil
	}
	if rt.pending == 0 {
		rt.idleEvt = sim.NewEvent(rt.e)
	}
	rt.pending += len(ts)
	prev := rt.releasePlace
	rt.releasePlace = -1 // submit-time readiness is not a release
	var firstErr error
	rest := ts
	for len(rest) > 0 {
		accepted, err := rt.graph.SubmitBatch(rest)
		if err == nil && accepted == len(rest) {
			break
		}
		// rest[accepted] was rejected: roll back its bookkeeping and
		// continue with the tasks after it, as sequential Submit would.
		rt.pending--
		if firstErr == nil {
			firstErr = err
		}
		rest = rest[accepted+1:]
	}
	rt.releasePlace = prev
	if rt.pending == 0 {
		rt.idleEvt.Trigger()
	}
	return firstErr
}

// finishTask retires t, releasing dependents. place is the master-level
// place that executed it.
func (rt *Runtime) finishTask(t *task.Task, place int) {
	rt.releasePlace = place
	rt.graph.Finished(t)
	rt.releasePlace = -1
	if ev, ok := rt.taskDone[t.ID]; ok {
		ev.Trigger()
		delete(rt.taskDone, t.ID)
	}
	rt.pending--
	if rt.pending == 0 {
		rt.idleEvt.Trigger()
	}
}

// MainCtx is the handle the application's main function uses: the implicit
// initial task executing on the master image.
type MainCtx struct {
	rt *Runtime
	p  *sim.Proc
}

// TaskDef describes one task instance for Submit.
type TaskDef struct {
	Name        string
	Device      task.Device
	Deps        []task.Dep
	NoCopyDeps  bool // set to detach copy semantics from the dependence list
	ExtraCopies []task.Dep
	// Reductions maps region addresses of Red dependences to combiners.
	Reductions map[uint64]task.Combiner
	Work       task.Work
	// Spawner, when set, runs on the executing node after Work and may
	// submit nested tasks through the *LocalCtx it receives; the task
	// completes when they drain. See internal/core/nested.go.
	Spawner func(interface{})
}

// Run executes main as the application's initial task and drives the
// simulation to completion, returning aggregate statistics. The implicit
// barrier and flush of the end of an OmpSs program are applied after main
// returns.
func (rt *Runtime) Run(main func(mc *MainCtx)) (Stats, error) {
	if rt.stopped {
		panic("core: Runtime cannot be reused")
	}
	if len(rt.nodes) > 1 {
		rt.registerMasterHandlers()
	}
	for _, n := range rt.nodes {
		n.start()
	}
	if len(rt.nodes) > 1 {
		rt.spawnCommThread()
		if rt.ft != nil {
			rt.spawnHeartbeat()
		}
	}
	rt.e.Go("main", func(p *sim.Proc) {
		mc := &MainCtx{rt: rt, p: p}
		main(mc)
		mc.TaskWait() // implicit final barrier + flush
		rt.shutdown(p)
	})
	err := rt.e.Run()
	rt.stopped = true
	if err == nil {
		err = rt.userErr
	}
	return rt.collectStats(), err
}

func (rt *Runtime) shutdown(p *sim.Proc) {
	for _, n := range rt.nodes {
		n.stopping = true
		n.signalWork()
	}
	if len(rt.nodes) > 1 {
		for k := 1; k < len(rt.nodes); k++ {
			if rt.nodeIsDead(k) {
				continue // its workers were stopped above; no peer to notify
			}
			rt.master().ep.AMShort(p, k, amShutdown, nil)
		}
		// Close endpoints after the shutdown notices drain.
		p.Sleep(rt.cfg.Cluster.Net.Latency * 4)
		for _, n := range rt.nodes {
			n.ep.Shutdown()
		}
	}
}

// Now returns the current virtual time.
func (mc *MainCtx) Now() sim.Time { return mc.p.Now() }

// Alloc reserves a program region (logical memory, lazily backed).
func (mc *MainCtx) Alloc(size uint64) memspace.Region {
	return mc.rt.alloc.Alloc(size, 0)
}

// HostBytes exposes the master-host backing bytes of r (nil unless
// Validate). Call only after TaskWait for deterministic contents.
func (mc *MainCtx) HostBytes(r memspace.Region) []byte {
	return mc.rt.master().hostStore.Bytes(r)
}

// InitSeq initializes r sequentially on the master host (charging host
// memory bandwidth) and records the master as its holder. fill may be nil.
func (mc *MainCtx) InitSeq(r memspace.Region, fill func(b []byte)) {
	rt := mc.rt
	spec := rt.master().spec
	mc.p.Sleep(time.Duration(float64(r.Size) / spec.HostMemBandwidth * 1e9))
	if fill != nil && rt.cfg.Validate {
		fill(rt.master().hostStore.Bytes(r))
	}
	rt.master().dir.Init(r, memspace.Host(0))
}

// Submit creates a task from def, wiring its dependences. Mirrors
// "#pragma omp task" with an optional "#pragma omp target device(...)":
// copy_deps semantics are on unless NoCopyDeps is set, as every example in
// the paper uses copy_deps. Sequential submission is a batch of one.
func (mc *MainCtx) Submit(def TaskDef) *task.Task {
	return mc.SubmitBatch([]TaskDef{def})[0]
}

// buildTask constructs the task for one definition and validates its
// reduction clauses; ok is false when the task must not be submitted (the
// error has been recorded).
func (mc *MainCtx) buildTask(def TaskDef) (t *task.Task, ok bool) {
	rt := mc.rt
	t = &task.Task{
		ID:          rt.newTaskID(),
		Name:        def.Name,
		Device:      def.Device,
		Deps:        def.Deps,
		CopyDeps:    !def.NoCopyDeps,
		ExtraCopies: def.ExtraCopies,
		Reductions:  def.Reductions,
		Work:        def.Work,
		Spawner:     def.Spawner,
	}
	if t.Work == nil {
		t.Work = task.NoWork{Label: def.Name}
	}
	if t.Device == task.CUDA && rt.cfg.Cluster.TotalGPUs() == 0 {
		panic("core: CUDA task on a machine with no GPUs")
	}
	for _, d := range t.Deps {
		if d.Access == task.Red {
			if _, ok := t.Reductions[d.Region.Addr]; !ok {
				rt.fail(fmt.Errorf("core: %v has a reduction dependence on %v but no combiner (use the Reduction clause)", t, d.Region))
				return t, false
			}
		}
	}
	return t, true
}

// SubmitBatch creates one task per definition and registers them with the
// dependency graph in order (depgraph.SubmitBatch): the same arcs, the
// same readiness order and the same per-task creation overhead on the
// master thread as submitting each definition on its own. What a batch
// batches is virtual time — one Sleep for the whole creation charge and
// one manager round for the dependence lookups — not index work.
func (mc *MainCtx) SubmitBatch(defs []TaskDef) []*task.Task {
	out := make([]*task.Task, 0, len(defs))
	valid := make([]*task.Task, 0, len(defs))
	for _, def := range defs {
		t, ok := mc.buildTask(def)
		out = append(out, t)
		if ok {
			valid = append(valid, t)
		}
	}
	// Task creation overhead on the master thread, per task: a batch pays
	// the same modeled creation cost, in one piece.
	mc.p.Sleep(time.Duration(len(defs)) * 3 * time.Microsecond)
	// With the manager layer armed, the batch's dependence lookups are
	// served by the owning shards — in parallel across shards, serialized
	// within one — before any task enters the graph.
	mc.rt.mgrChargeSubmit(mc.p, valid)
	if err := mc.rt.submitBatch(valid); err != nil {
		mc.rt.fail(err)
	}
	return out
}

// TaskWait blocks until all submitted tasks finish, then flushes: every
// region's current version is made valid on the master host again, exactly
// like the implicit flush of OmpSs taskwait.
func (mc *MainCtx) TaskWait() {
	mc.TaskWaitNoflush()
	mc.rt.flushAll(mc.p)
}

// TaskWaitNoflush blocks until all submitted tasks finish but leaves data
// on the devices (the paper's `taskwait noflush` extension).
func (mc *MainCtx) TaskWaitNoflush() {
	mc.rt.idleEvt.Wait(mc.p)
}

// TaskWaitOn blocks until the data of r has been produced (the `taskwait
// on(...)` extension), then makes r valid on the master host.
func (mc *MainCtx) TaskWaitOn(r memspace.Region) {
	rt := mc.rt
	for {
		w := rt.graph.LastWriter(r)
		if w == nil {
			break
		}
		// w is in the graph unfinished, so finishTask has yet to run for
		// it and will trigger the event.
		ev := rt.taskDone[w.ID]
		if ev == nil {
			ev = sim.NewEvent(rt.e)
			rt.taskDone[w.ID] = ev
		}
		ev.Wait(mc.p)
	}
	rt.waitRestore(mc.p, r)
	rt.master().fetchToHost(mc.p, r)
}

// flushAll pulls every region whose current version is off-host back to the
// master host, in parallel.
func (rt *Runtime) flushAll(p *sim.Proc) {
	m := rt.master()
	var stale []memspace.Region
	for _, r := range m.dir.Regions() {
		if !m.dir.IsHolder(r, memspace.Host(0)) || len(m.overlappingRedRegions(r)) > 0 || rt.restorePending(r) {
			stale = append(stale, r)
		}
	}
	rt.moveEach(p, "flush", true, stale, func(fp *sim.Proc, r memspace.Region) bool {
		// A region under rebuild nominally lists the master as holder
		// (its stale base); wait for the real version first.
		rt.waitRestore(fp, r)
		m.fetchToHost(fp, r)
		return true
	})
}

// moveEach runs move on every region and reports whether all succeeded:
// concurrently, one process per region started in order and all awaited,
// or one after the other on p up to the first failure.
func (rt *Runtime) moveEach(p *sim.Proc, name string, concurrent bool, regions []memspace.Region,
	move func(*sim.Proc, memspace.Region) bool) bool {
	if !concurrent {
		for _, r := range regions {
			if !move(p, r) {
				return false
			}
		}
		return true
	}
	ok := true
	wait := make([]*sim.Event, 0, len(regions))
	for _, r := range regions {
		done := sim.NewEvent(rt.e)
		rt.e.Go(name, func(sp *sim.Proc) {
			if !move(sp, r) {
				ok = false
			}
			done.Trigger()
		})
		wait = append(wait, done)
	}
	for _, ev := range wait {
		ev.Wait(p)
	}
	return ok
}

func (rt *Runtime) collectStats() Stats {
	s := Stats{
		ElapsedSeconds: rt.e.Now().Seconds(),
		Presends:       int(rt.met.presends.Value()),
		Writebacks:     int(rt.met.writebacks.Value()),
		BytesMtoS:      uint64(rt.met.bytesMtoS.Value()),
		BytesStoS:      uint64(rt.met.bytesStoS.Value()),
		TasksRemote:    int(rt.met.remoteRun.Value()),
	}
	if rt.ft != nil {
		is := rt.ft.inj.Stats()
		s.FaultDropsInjected = is.Drops + is.CrashDrops
		s.NetRetries = int(rt.met.retries.Value())
		s.HeartbeatMisses = int(rt.met.hbMisses.Value())
		s.DeadNodes = int(rt.met.deadNodes.Value())
		s.TasksReexecuted = int(rt.met.reexecs.Value())
		if rt.ft.haveRecovered {
			s.RecoverySeconds = (rt.ft.recoverEnd - rt.ft.recoverStart).Seconds()
		}
	}
	s.ManagerOps = int(rt.met.mgrOps.Value())
	s.ManagerRemoteOps = int(rt.met.mgrRemoteOps.Value())
	s.ManagerFailovers = int(rt.met.mgrFailovers.Value())
	s.ManagerBrokered = int(rt.met.mgrBrokered.Value())
	// Energy under the two-level power model: the whole cluster idles for
	// the whole run, and each kernel adds its device's busy delta for its
	// duration. Pure arithmetic over already-collected busy counters.
	s.EnergyJoules = rt.cfg.Cluster.IdleWatts() * s.ElapsedSeconds
	s.PowerPeakWatts = rt.gov.PeakWatts()
	s.PowerThrottles = int(rt.gov.throttles.Value())
	elapsed := int64(rt.e.Now())
	for _, n := range rt.nodes {
		nodeTasks := int(n.met.tasksSMP.Value() + n.met.tasksCUDA.Value())
		s.TasksPerNode = append(s.TasksPerNode, nodeTasks)
		s.TasksSMP += int(n.met.tasksSMP.Value())
		s.TasksCUDA += int(n.met.tasksCUDA.Value())
		for g, d := range n.devs {
			ds := d.Stats()
			s.BytesH2D += ds.BytesH2D
			s.BytesD2H += ds.BytesD2H
			s.XfersH2D += ds.XfersH2D
			s.XfersD2H += ds.XfersD2H
			s.KernelBusySeconds += ds.KernelBusy.Seconds()
			s.EnergyJoules += n.spec.GPUs[g].Power.Delta() * ds.KernelBusy.Seconds()
			// Derived per-device time split: busy running kernels, stalled
			// on DMA, idle otherwise (gauges, recomputed at each collect).
			ls := []metrics.Label{metrics.L("node", strconv.Itoa(n.id)), metrics.L("gpu", strconv.Itoa(g))}
			busy, dma := int64(ds.KernelBusy), int64(ds.DMABusy)
			idle := elapsed - busy - dma
			if idle < 0 {
				idle = 0 // overlap mode: engines run concurrently
			}
			rt.cfg.Metrics.Gauge("gpu_stall_ns", ls...).Set(dma)
			rt.cfg.Metrics.Gauge("gpu_idle_ns", ls...).Set(idle)
		}
		for _, c := range n.caches {
			s.CacheHits += c.Hits
			s.CacheMisses += c.Misses
			s.Evictions += c.Evictions
		}
		fs := rt.fabric.Iface(n.id).Stats()
		s.NetBytes += fs.BytesSent
		s.NetMsgs += fs.MsgsSent
	}
	s.Metrics = rt.cfg.Metrics.Snapshot()
	return s
}
