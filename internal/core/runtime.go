package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/bsc-repro/ompss/internal/depgraph"
	"github.com/bsc-repro/ompss/internal/gasnet"
	"github.com/bsc-repro/ompss/internal/memspace"
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
	idleEvt  *sim.Event             // triggered while the graph has nothing pending
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

	// Activity counts of the runtime's own layer; the devices, caches,
	// interfaces, endpoints, schedulers and managers count theirs, and
	// collectStats sums them all into Stats.
	presends, writebacks, tasksRemote int
	bytesMtoS, bytesStoS              uint64

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

	// chains recycles the records of the event chains that move data and
	// control for one task (chain.go).
	chains chains

	// plane moves the bytes of a validated run beside the engine.
	plane *memspace.Plane

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

// planeWorkers bounds a validated run's plane workers (0: GOMAXPROCS); the
// tests vary it to show the plane's width moves no byte.
var planeWorkers int

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
	}
	if cfg.Validate {
		rt.plane = memspace.NewPlane(planeWorkers, func(v any, stack []byte) error {
			return &sim.ProcPanicError{Proc: "(data plane)", Value: v, Stack: stack}
		})
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
			Score: rt.clusterScore, Cost: rt.clusterEstimates, Rank: rt.upwardRank,
			CanRun: rt.clusterCanRun, Accepts: rt.clusterAccepts})
		rt.cl = &clusterState{outstanding: make([]int, len(rt.nodes)), closed: make([]bool, len(rt.nodes)),
			open: make([]int, cfg.CommThreads), xfers: make(map[int64]*plan),
			scores: make([]uint64, len(rt.nodes)), estimates: make([]sched.Estimate, len(rt.nodes))}
	}
	rt.mgr = newMgrState(cfg)
	rt.initChains()
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
	prev := rt.releasePlace
	rt.releasePlace = -1 // submit-time readiness is not a release
	var firstErr error
	for rest := ts; len(rest) > 0; {
		accepted, err := rt.graph.SubmitBatch(rest)
		if err == nil {
			break
		}
		// rest[accepted] was rejected before it touched the graph:
		// continue with the tasks after it, as sequential Submit would.
		if firstErr == nil {
			firstErr = err
		}
		rest = rest[accepted+1:]
	}
	rt.releasePlace = prev
	if rt.graph.Pending() > 0 && rt.idleEvt.Triggered() {
		rt.idleEvt = sim.NewEvent(rt.e)
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
	if rt.graph.Pending() == 0 {
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

// fill makes t the task of def, numbered id.
func (def *TaskDef) fill(t *task.Task, id task.ID) {
	*t = task.Task{
		ID:       id,
		Name:     def.Name,
		Device:   def.Device,
		Deps:     def.Deps,
		CopyDeps: !def.NoCopyDeps,
		Work:     def.Work,
	}
	if t.Work == nil {
		t.Work = task.NoWork{Label: def.Name}
	}
	t.SetClauses(def.ExtraCopies, def.Reductions, def.Spawner)
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
		if rt.recovers() {
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
	if lost := (*nodeLostError)(nil); errors.As(err, &lost) {
		err = lost // raised as a panic to stop the engine; not a bug
	}
	rt.stopped = true
	// The plane's failure is where the run would have stopped inline.
	if perr := rt.plane.Wait(); perr != nil {
		err = perr
	}
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
			p.Await("shutdown", func(done func(bool)) { rt.master().ep.AMShortFunc(k, amShutdown, gasnet.Args{}, done) })
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
	return mc.rt.alloc.Alloc(size)
}

// HostBytes exposes the master-host backing bytes of r (nil unless
// Validate), once every byte operation posted so far has landed. Call only
// after TaskWait for deterministic contents.
func (mc *MainCtx) HostBytes(r memspace.Region) []byte {
	mc.rt.plane.Wait() // a failure is Run's to return
	return mc.rt.master().hostStore.Bytes(r)
}

// HostRead copies the master-host bytes of r into dst (zeros unless
// Validate) once every byte operation posted so far has landed, merging
// no backing extents as HostBytes does. Call only after TaskWait for
// deterministic contents.
func (mc *MainCtx) HostRead(r memspace.Region, dst []byte) {
	mc.rt.plane.Wait() // a failure is Run's to return
	mc.rt.master().hostStore.Read(r, dst)
}

// InitSeq initializes r sequentially on the master host (charging host
// memory bandwidth) and records the master as its holder. fill may be nil;
// it runs as an op on the master host store, beside the simulation, so it
// must touch nothing but b.
func (mc *MainCtx) InitSeq(r memspace.Region, fill func(b []byte)) {
	rt := mc.rt
	spec := rt.master().spec
	mc.p.Sleep(time.Duration(float64(r.Size) / spec.HostMemBandwidth * 1e9))
	if host := rt.master().hostStore; fill != nil && host != nil {
		memspace.Do(func() { fill(host.Bytes(r)) }, host)
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

// buildTask fills in t, the task for one definition, and validates its
// reduction clauses; ok is false when the task must not be submitted (the
// error has been recorded).
func (mc *MainCtx) buildTask(t *task.Task, def TaskDef) (ok bool) {
	rt := mc.rt
	def.fill(t, rt.newTaskID())
	if t.Device == task.CUDA && rt.cfg.Cluster.TotalGPUs() == 0 {
		panic("core: CUDA task on a machine with no GPUs")
	}
	for _, d := range t.Deps {
		if d.Access == task.Red {
			if _, ok := t.Reductions()[d.Region.Addr]; !ok {
				rt.fail(fmt.Errorf("core: %v has a reduction dependence on %v but no combiner (use the Reduction clause)", t, d.Region))
				return false
			}
		}
	}
	return true
}

// SubmitBatch creates one task per definition and registers them with the
// dependency graph in order (depgraph.SubmitBatch): the same arcs, the
// same readiness order and the same per-task creation overhead on the
// master thread as submitting each definition on its own. What a batch
// batches is virtual time — one Sleep for the whole creation charge and
// one manager round for the dependence lookups — not index work; what it
// saves on the host is allocations: the batch's task descriptors are one.
func (mc *MainCtx) SubmitBatch(defs []TaskDef) []*task.Task {
	out := make([]*task.Task, len(defs))
	valid := make([]*task.Task, 0, len(defs))
	tasks := make([]task.Task, len(defs))
	for i, def := range defs {
		out[i] = &tasks[i]
		if mc.buildTask(out[i], def) {
			valid = append(valid, out[i])
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
// on(...)` extension), by its last writer and any reducers since, then
// makes r valid on the master host with the reduction partials combined.
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
	mc.p.Await("staging", func(done func(bool)) {
		rt.waitRestore(r, func(bool) { rt.master().fetchToHost(r, true, done) })
	})
}

// flushAll pulls every region whose current version is off-host back to the
// master host, in parallel.
func (rt *Runtime) flushAll(p *sim.Proc) {
	m := rt.master()
	var stale []memspace.Region
	for _, r := range m.dir.Regions() {
		if !m.dir.IsHolder(r, memspace.Host(0)) || len(m.overlappingRedRegions(r)) > 0 ||
			rt.ft != nil && rt.ft.fence(r) != nil {
			stale = append(stale, r)
		}
	}
	p.Await("staging", func(done func(bool)) {
		rt.moveEach(true, stale, func(r memspace.Region, done func(bool)) {
			// A region under rebuild nominally lists the master as holder
			// (its stale base); wait for the real version first.
			rt.waitRestore(r, func(bool) { m.fetchToHost(r, true, done) })
		}, done)
	})
}

func (rt *Runtime) collectStats() Stats {
	s := Stats{
		ElapsedSeconds:   rt.e.Now().Seconds(),
		Writebacks:       rt.writebacks,
		BytesMtoS:        rt.bytesMtoS,
		BytesStoS:        rt.bytesStoS,
		TasksRemote:      rt.tasksRemote,
		Presends:         rt.presends,
		PowerThrottles:   rt.gov.throttles,
		ManagerOps:       rt.mgr.model.Ops,
		ManagerRemoteOps: rt.mgr.model.RemoteOps,
		ManagerFailovers: rt.mgr.failovers,
		BrokeredPushes:   rt.mgr.brokered,
	}
	if rt.ft != nil {
		is := rt.ft.inj.Stats()
		s.FaultDropsInjected = is.Drops + is.CrashDrops
		s.HeartbeatMisses = rt.ft.misses
		s.DeadNodes = rt.ft.deaths
		s.TasksReexecuted = rt.ft.reexecs
		if rt.ft.haveRecovered {
			s.RecoverySeconds = (rt.ft.recoverEnd - rt.ft.recoverStart).Seconds()
		}
	}
	// Energy under the two-level power model: the whole cluster idles for
	// the whole run, and each kernel adds its device's busy delta for its
	// duration. Pure arithmetic over already-collected busy counters.
	s.EnergyJoules = rt.cfg.Cluster.IdleWatts() * s.ElapsedSeconds
	s.PowerPeakWatts = rt.gov.peakWatts()
	for _, n := range rt.nodes {
		s.TasksPerNode = append(s.TasksPerNode, n.tasksSMP+n.tasksCUDA)
		s.TasksSMP += n.tasksSMP
		s.TasksCUDA += n.tasksCUDA
		s.FragmentAssemblies += n.fragAssemblies
		s.Steals += n.sch.Steals()
		s.NetRetries += n.ep.Stats().Retries
		for g, d := range n.devs {
			ds, c := d.Stats(), n.caches[g]
			s.BytesH2D += ds.BytesH2D
			s.BytesD2H += ds.BytesD2H
			s.XfersH2D += ds.XfersH2D
			s.XfersD2H += ds.XfersD2H
			s.EnergyJoules += n.spec.GPUs[g].Power.Delta() * ds.KernelBusy.Seconds()
			s.CacheHits += c.Hits
			s.CacheMisses += c.Misses
			s.Evictions += c.Evictions
		}
		fs := rt.fabric.Iface(n.id).Stats()
		s.NetBytes += fs.BytesSent
		s.NetMsgs += fs.MsgsSent
	}
	return s
}
