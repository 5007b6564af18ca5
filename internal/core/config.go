// Package core implements the Nanos++ runtime of the paper: the
// architecture-independent layer (dependency graph, scheduler, coherence)
// and the two dependent layers — the GPU architecture (manager thread per
// GPU, transfer/compute overlap, prefetch) and the cluster architecture
// (master and slave images, active messages, communication thread,
// presend, slave-to-slave transfers).
//
// Everything executes on the deterministic virtual clock of internal/sim;
// one Runtime instance owns one simulated machine.
package core

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/metrics"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/trace"
)

// Config selects the machine and the runtime options evaluated in the
// paper's experiments.
type Config struct {
	// Cluster is the simulated machine (see internal/hw presets).
	Cluster hw.ClusterSpec

	// Scheduler is the task scheduling policy (bf, dependencies, affinity).
	// Used at every level: the master's cluster-aware scheduler and each
	// node's local scheduler. Default: Dependencies (the runtime default in
	// the paper).
	Scheduler sched.Policy

	// CachePolicy is the software cache write policy (nocache, wt, wb).
	// Default: WriteBack.
	CachePolicy coherence.Policy

	// Overlap enables transfer/compute overlap through CUDA streams
	// (disabled by default in the paper; enabling it adds pinned-staging
	// memcpys).
	Overlap bool

	// Prefetch makes each GPU manager thread request its next task as soon
	// as a kernel is launched and start moving that task's data.
	Prefetch bool

	// CommThreads is the number of communication threads representing the
	// remote nodes at the master ("There is only one communication thread
	// ... Our design allows to have more than one if necessary", Section
	// III.D.1 footnote). Nodes are striped across threads. Default 1.
	CommThreads int

	// Presend is how many extra tasks the communication thread ships to a
	// remote node beyond the one executing, so that their input transfers
	// overlap remote computation. 0 disables presend.
	Presend int

	// SlaveToSlave allows direct data transfers between slave nodes
	// ("StoS"); when false every inter-node transfer is routed through the
	// master ("MtoS").
	SlaveToSlave bool

	// Steal enables work stealing between the affinity scheduler's local
	// queues.
	Steal bool

	// Lookahead is the per-place ready-ahead window of each node's
	// scheduler: when a worker or GPU manager finds its window empty, it
	// claims up to Lookahead ready tasks from the shared pool in one batch
	// and dispatches from the window afterwards, so dispatch does not
	// contend with graph construction on every pop. Claiming binds a task
	// to a place early, which can change schedules; 0 (and 1) disable the
	// window and keep schedules bit-identical to the paper-default runtime.
	Lookahead int

	// NonBlockingCache issues a task's input transfers concurrently and
	// waits once (the paper's non-blocking cache). When false each
	// transfer completes before the next is requested.
	NonBlockingCache bool

	// GPUCacheHeadroom reserves a fraction of device memory for the
	// runtime's own buffers; the software cache manages the rest.
	GPUCacheHeadroom float64

	// Validate carries real bytes through every memory and wire so kernels
	// can execute and results can be checked. Costs host time; benchmarks
	// run cost-only.
	Validate bool

	// Trace, when non-nil, records an execution timeline (task runs, data
	// transfers, network sends) for inspection, Gantt rendering, Perfetto
	// export and critical-path analysis. See internal/trace.
	Trace *trace.Recorder

	// Metrics is the registry the runtime's typed instruments live in
	// (counters, queue-depth gauges, virtual-time histograms — see
	// internal/metrics). Nil gets a private registry, so instruments always
	// record; supply one to snapshot mid-run or to aggregate across runs.
	Metrics *metrics.Registry

	// CPUWorkers is the number of SMP worker threads per node; 0 derives
	// it from the node spec (cores minus one per GPU manager minus one
	// runtime thread).
	CPUWorkers int

	// Faults, when non-nil, arms the fault-injection and fault-tolerance
	// machinery: the plan's seeded injector perturbs the fabric, active
	// messages gain ack/timeout/retry, the master runs a heartbeat failure
	// detector, and work lost to dead nodes is re-executed on survivors
	// (see internal/faults). Nil leaves every code path bit-identical to a
	// runtime without the subsystem.
	Faults *faults.Plan

	// ManagerShards assigns ownership of the address space to this many
	// manager shards (internal/dmgr), each hosted on a cluster node, with
	// dependence lookups and coherence queries charged to the owning shard
	// and, above one shard, slave-to-slave transfers forced on (the owning
	// manager only brokers metadata). 0 means 1: the master owns
	// everything. The shard count never changes results — directory and
	// dependence state live once, on the master image — it changes *where*
	// (and with ManagerOpCost *when*) manager work is served.
	ManagerShards int

	// PowerCapWatts, when positive, arms the cluster power governor: the
	// modeled draw (every node's and GPU's idle watts, plus each GPU's
	// busy-minus-idle delta while a kernel runs) is never allowed to
	// exceed the cap. A kernel launch that would cross it is deferred
	// until running kernels retire, so the cap trades time for power
	// without changing results. Must leave headroom for at least one
	// kernel: cap >= cluster idle + the largest single-GPU delta. 0 (the
	// default) disables throttling; the governor still meters draw and
	// energy either way.
	PowerCapWatts float64

	// ManagerOpCost, when positive, arms the manager service-time model:
	// every directory/dependence operation occupies the owning shard's
	// FCFS serial queue for this long, blocking queries sleep until their
	// virtual completion (plus network hops when the shard is remote), and
	// asynchronous updates consume queue capacity. This is what makes one
	// centralized manager saturate and N shards scale in the weakscale
	// experiment. 0 (the default) charges nothing.
	ManagerOpCost time.Duration
}

// withDefaults fills zero values and validates.
func (c Config) withDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = sched.Dependencies
	}
	if c.CachePolicy == "" {
		c.CachePolicy = coherence.WriteBack
	}
	if c.GPUCacheHeadroom == 0 {
		c.GPUCacheHeadroom = 0.05
	}
	if c.CommThreads <= 0 {
		c.CommThreads = 1
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	if err := c.Cluster.Validate(); err != nil {
		panic("core: invalid Config.Cluster: " + err.Error())
	}
	if c.PowerCapWatts < 0 {
		panic(fmt.Sprintf("core: negative PowerCapWatts %g", c.PowerCapWatts))
	}
	if c.PowerCapWatts > 0 {
		// The cap must admit at least the hungriest single kernel on top of
		// the idle baseline, or that kernel could never launch.
		var maxDelta float64
		for _, nd := range c.Cluster.Nodes {
			for _, g := range nd.GPUs {
				if d := g.Power.Delta(); d > maxDelta {
					maxDelta = d
				}
			}
		}
		if floor := c.Cluster.IdleWatts() + maxDelta; c.PowerCapWatts < floor {
			panic(fmt.Sprintf("core: PowerCapWatts %g below the feasible floor %g W (cluster idle %g W + largest kernel delta %g W)",
				c.PowerCapWatts, floor, c.Cluster.IdleWatts(), maxDelta))
		}
	}
	if c.Presend < 0 {
		panic(fmt.Sprintf("core: negative Presend %d", c.Presend))
	}
	if c.Lookahead < 0 {
		panic(fmt.Sprintf("core: negative Lookahead %d", c.Lookahead))
	}
	if c.ManagerShards < 0 {
		panic(fmt.Sprintf("core: negative ManagerShards %d", c.ManagerShards))
	}
	if c.ManagerOpCost < 0 {
		panic(fmt.Sprintf("core: negative ManagerOpCost %v", c.ManagerOpCost))
	}
	if c.ManagerShards > 1 {
		// Distributed managers broker metadata only; the data path is
		// slave-to-slave by construction.
		c.SlaveToSlave = true
	}
	return c
}

func (c Config) cpuWorkers(spec hw.NodeSpec) int {
	if c.CPUWorkers > 0 {
		return c.CPUWorkers
	}
	w := spec.CPUCores - len(spec.GPUs) - 1
	if w < 1 {
		w = 1
	}
	return w
}

// Stats aggregates a run's activity.
type Stats struct {
	// Elapsed is the virtual time from Run start to completion.
	ElapsedSeconds float64

	TasksSMP    int
	TasksCUDA   int
	TasksRemote int // tasks dispatched to slave nodes (subset of the above)

	// GPU traffic, all devices.
	BytesH2D uint64
	BytesD2H uint64
	XfersH2D int
	XfersD2H int

	// Network traffic.
	NetBytes uint64
	NetMsgs  int
	// Inter-node data that crossed the master's link, either direction, vs
	// data that went slave->slave.
	BytesMtoS uint64
	BytesStoS uint64

	// Software-cache behaviour, all devices.
	CacheHits   int
	CacheMisses int
	Evictions   int
	Writebacks  int // dirty lines written back (eviction, wt, flush)

	// Presend: tasks shipped to a node before it was idle.
	Presends int

	// KernelBusySeconds sums kernel engine busy time across GPUs.
	KernelBusySeconds float64

	// Power model (metered on every run; throttles only move when
	// Config.PowerCapWatts is set).
	PowerPeakWatts float64 // high-water modeled cluster draw
	EnergyJoules   float64 // idle baseline + per-kernel busy deltas
	PowerThrottles int     // kernel launches deferred by the governor

	// TasksPerNode counts tasks executed on each node (SMP + CUDA).
	TasksPerNode []int

	// Fault tolerance (all zero unless Config.Faults was set).
	FaultDropsInjected int     // messages the injector lost or blackholed
	NetRetries         int     // reliable-AM retransmissions
	HeartbeatMisses    int     // failure-detector probe misses
	DeadNodes          int     // nodes declared dead
	TasksReexecuted    int     // tasks re-run on survivors during recovery
	RecoverySeconds    float64 // virtual time from first death to last rebuild

	// Distributed managers (all zero at the defaults: one shard, zero
	// ManagerOpCost).
	ManagerOps       int // directory/dependence operations served by shards
	ManagerRemoteOps int // subset served by a shard hosted off the caller's node
	ManagerFailovers int // shards rehosted after a manager crash
	ManagerBrokered  int // slave-to-slave pushes brokered by a non-master shard host

	// Metrics is the full registry snapshot the summary fields above were
	// derived from, in deterministic instrument order.
	Metrics []metrics.Sample
}
