// Package ompss is a Go reproduction of the OmpSs programming model for
// clusters of GPUs (Bueno et al., "Productive Programming of GPU Clusters
// with OmpSs", IPPS 2012).
//
// OmpSs annotates a serial program with task directives; the Nanos++
// runtime extracts dataflow parallelism, schedules tasks over CPUs, GPUs
// and cluster nodes, and moves data automatically. Go has no pragmas, so
// the directives become API calls with the same vocabulary:
//
//	#pragma omp target device(cuda) copy_deps
//	#pragma omp task input([BS*BS]a, [BS*BS]b) inout([BS*BS]c)
//
// becomes
//
//	ctx.Task(work, ompss.Target(ompss.CUDA), ompss.In(a), ompss.In(b), ompss.InOut(c))
//
// The same program runs unchanged on one GPU, several GPUs in one node, or
// a simulated cluster of GPU nodes — selected entirely by the Config. All
// hardware (GPUs, PCIe, InfiniBand) is simulated deterministically on a
// virtual clock; see DESIGN.md for the substitution rationale.
package ompss

import (
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/core"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// Region names a contiguous piece of program data; the unit of dependence
// and copy clauses. Regions of different tasks may overlap arbitrarily:
// the runtime tracks dependences and coherence per byte range, splitting
// regions into fragments where writers divide them (the paper's "region
// versions"). Reduction regions are the one exception — a Reduction
// clause must use the exact same region as the other tasks reducing into
// it, and must not partially overlap any other clause.
type Region = memspace.Region

// Work is a task body: a cost model per device class plus an optional real
// implementation for validation runs. See the kernels in internal/kernels
// and the helpers task.FixedWork / task.NoWork.
type Work = task.Work

// Device selects a task's target architecture.
type Device = task.Device

// Target devices, as in `#pragma omp target device(...)`.
const (
	// SMP runs the task on host CPU cores.
	SMP = task.SMP
	// CUDA runs the task on a GPU.
	CUDA = task.CUDA
)

// Policy is a task scheduling policy name.
type Policy = sched.Policy

// CachePolicy is a software-cache write policy name.
type CachePolicy = coherence.Policy

// Scheduling policies (Config.Scheduler).
const (
	// BreadthFirst is plain FIFO scheduling.
	BreadthFirst = sched.BreadthFirst
	// Dependencies prefers successors of the just-finished task (default).
	Dependencies = sched.Dependencies
	// Affinity is the locality-aware scheduler.
	Affinity = sched.Affinity
	// HEFT ranks tasks by upward rank and binds each to its
	// earliest-finish place using the per-device cost model — the policy
	// built for mixed-generation (heterogeneous) clusters.
	HEFT = sched.HEFT
)

// Cache write policies (Config.CachePolicy).
const (
	// NoCache moves data in and out around every task.
	NoCache = coherence.NoCache
	// WriteThrough propagates device writes to the host immediately.
	WriteThrough = coherence.WriteThrough
	// WriteBack keeps device writes until eviction or flush (default).
	WriteBack = coherence.WriteBack
)

// Config selects the simulated machine and runtime options. The zero value
// of every field selects the paper's defaults (dependencies scheduler,
// write-back cache, no overlap, no prefetch, no presend).
type Config = core.Config

// Stats is the aggregate activity report of one run.
type Stats = core.Stats

// FaultPlan is a deterministic fault scenario for Config.Faults: a seeded
// drop process, link degradation, transient stalls and permanent crashes.
// The zero plan injects nothing but still arms the resilience machinery
// (acks, retries, heartbeats); a nil Config.Faults disables it entirely.
type FaultPlan = faults.Plan

// FaultCrash removes a node from the cluster permanently at a virtual time.
type FaultCrash = faults.Crash

// FaultStall freezes a node's link for a window of virtual time.
type FaultStall = faults.Stall

// Time is a point in virtual time.
type Time = sim.Time

// Trace records an execution timeline when assigned to Config.Trace; see
// internal/trace for inspection, Gantt rendering and Paraver export.
type Trace = trace.Recorder

// NewTrace returns an empty execution-trace recorder.
func NewTrace() *Trace { return trace.New() }

// Machine presets mirroring the paper's two evaluation environments.
var (
	// MultiGPUSystem returns a single node with 1..4 Tesla S2050-class GPUs.
	MultiGPUSystem = hw.MultiGPUSystem
	// GPUCluster returns n single-GPU (GTX 480-class) nodes on QDR InfiniBand.
	GPUCluster = hw.GPUCluster
	// MixedGPUCluster returns a heterogeneous cluster: gtx GTX 480-class
	// nodes followed by tesla Tesla S2050-class nodes on QDR InfiniBand.
	MixedGPUCluster = hw.MixedGPUCluster
)

// Runtime is a configured OmpSs runtime over a simulated machine.
type Runtime struct {
	rt *core.Runtime
}

// New builds a runtime. Each Runtime runs exactly one program.
func New(cfg Config) *Runtime {
	return &Runtime{rt: core.New(cfg)}
}

// Run executes main as the program's initial task on the master node and
// simulates to completion. An implicit taskwait-with-flush closes the
// program, exactly as an OmpSs binary behaves at exit.
func (r *Runtime) Run(main func(ctx *Context)) (Stats, error) {
	return r.rt.Run(func(mc *core.MainCtx) {
		main(&Context{mc: mc})
	})
}

// Context is the program's handle to the runtime: the OmpSs directives as
// methods. It is only valid inside Run.
type Context struct {
	mc *core.MainCtx
}

// Clause is a directive clause for Task: In, Out, InOut, Target, Name,
// CopyIn, CopyOut, CopyInOut, NoCopyDeps.
type Clause func(*core.TaskDef)

// In declares input dependences (`input(...)`): the task reads each region.
func In(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.Deps = append(d.Deps, task.Dep{Region: r, Access: task.In})
		}
	}
}

// Out declares output dependences (`output(...)`).
func Out(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.Deps = append(d.Deps, task.Dep{Region: r, Access: task.Out})
		}
	}
}

// InOut declares inout dependences (`inout(...)`).
func InOut(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.Deps = append(d.Deps, task.Dep{Region: r, Access: task.InOut})
		}
	}
}

// Combiner folds a partial reduction result into the accumulator (both
// as backing bytes). Only called in validation mode.
type Combiner = task.Combiner

// Reduction declares a reduction dependence on r (implementing the
// paper's Section VII "better support of reduction operations"): tasks
// reducing into the same region run concurrently, each accumulating into
// a private per-device copy starting from the identity; the runtime folds
// the partials into r with combine before the next reader. See SumFloat32
// and friends for common combiners.
func Reduction(r Region, combine Combiner) Clause {
	return func(d *core.TaskDef) {
		d.Deps = append(d.Deps, task.Dep{Region: r, Access: task.Red})
		if d.Reductions == nil {
			d.Reductions = make(map[uint64]task.Combiner)
		}
		d.Reductions[r.Addr] = combine
	}
}

// SumFloat32 adds float32 partials elementwise.
func SumFloat32(acc, partial []byte) {
	a := unsafeF32(acc)
	p := unsafeF32(partial)
	for i := range a {
		a[i] += p[i]
	}
}

// SumFloat64 adds float64 partials elementwise.
func SumFloat64(acc, partial []byte) {
	a := unsafeF64(acc)
	p := unsafeF64(partial)
	for i := range a {
		a[i] += p[i]
	}
}

// Target selects the device (`target device(...)`). Default: SMP.
func Target(dev Device) Clause {
	return func(d *core.TaskDef) { d.Device = dev }
}

// Name labels the task in traces.
func Name(name string) Clause {
	return func(d *core.TaskDef) { d.Name = name }
}

// NoCopyDeps detaches copy semantics from the dependence clauses (the
// default is copy_deps, which every example in the paper uses).
func NoCopyDeps() Clause {
	return func(d *core.TaskDef) { d.NoCopyDeps = true }
}

// CopyIn adds explicit copy_in clauses beyond the dependence list.
func CopyIn(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.ExtraCopies = append(d.ExtraCopies, task.Dep{Region: r, Access: task.In})
		}
	}
}

// CopyOut adds explicit copy_out clauses.
func CopyOut(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.ExtraCopies = append(d.ExtraCopies, task.Dep{Region: r, Access: task.Out})
		}
	}
}

// CopyInOut adds explicit copy_inout clauses.
func CopyInOut(regions ...Region) Clause {
	return func(d *core.TaskDef) {
		for _, r := range regions {
			d.ExtraCopies = append(d.ExtraCopies, task.Dep{Region: r, Access: task.InOut})
		}
	}
}

// Task spawns a task running work under the given clauses
// (`#pragma omp task ...`). It returns immediately; synchronize with
// TaskWait or dependences.
func (c *Context) Task(work Work, clauses ...Clause) {
	def := core.TaskDef{Work: work}
	for _, cl := range clauses {
		cl(&def)
	}
	if def.Name == "" && work != nil {
		def.Name = work.Name()
	}
	c.mc.Submit(def)
}

// TaskSpec is one task of a TaskBatch: work plus its clauses.
type TaskSpec struct {
	Work    Work
	Clauses []Clause
}

// TaskBatch spawns a set of tasks in one submission. The tasks get the
// same arcs in the same order as spawning each with Task, and the master
// thread pays the same creation overhead per task, but in one piece: all
// of them are created (and become ready) at the end of the batch's
// accumulated creation overhead rather than spread across it. Prefer
// Task/Taskloop when workers should start on early tasks while later
// ones are still being created.
func (c *Context) TaskBatch(specs []TaskSpec) {
	defs := make([]core.TaskDef, 0, len(specs))
	for _, s := range specs {
		def := core.TaskDef{Work: s.Work}
		for _, cl := range s.Clauses {
			cl(&def)
		}
		if def.Name == "" && s.Work != nil {
			def.Name = s.Work.Name()
		}
		defs = append(defs, def)
	}
	c.mc.SubmitBatch(defs)
}

// Taskloop partitions the iteration space [0, total) into chunks of at
// most grain iterations and spawns one task per chunk, built by build —
// the worksharing-with-dependences construct the paper lists as future
// work ("the application of the dependencies clauses and target construct
// to worksharing constructs in addition to tasking").
func (c *Context) Taskloop(total, grain int, build func(lo, hi int) (Work, []Clause)) {
	if total < 0 || grain <= 0 {
		panic("ompss: Taskloop needs total >= 0 and grain > 0")
	}
	for lo := 0; lo < total; lo += grain {
		hi := lo + grain
		if hi > total {
			hi = total
		}
		work, clauses := build(lo, hi)
		c.Task(work, clauses...)
	}
}

// Alloc reserves a program region of size bytes.
func (c *Context) Alloc(size uint64) Region { return c.mc.Alloc(size) }

// InitSeq initializes r sequentially on the master host, like the serial
// initialization loop of an unported application. fill runs against the
// backing bytes in validation mode and may be nil.
func (c *Context) InitSeq(r Region, fill func(b []byte)) { c.mc.InitSeq(r, fill) }

// TaskWait blocks until all tasks finish and flushes device data back to
// the host (`#pragma omp taskwait`).
func (c *Context) TaskWait() { c.mc.TaskWait() }

// TaskWaitNoflush blocks until all tasks finish but leaves data on the
// devices (`#pragma omp taskwait noflush`).
func (c *Context) TaskWaitNoflush() { c.mc.TaskWaitNoflush() }

// TaskWaitOn blocks until the region's producer finishes and the data is
// valid on the host (`#pragma omp taskwait on(...)`).
func (c *Context) TaskWaitOn(r Region) { c.mc.TaskWaitOn(r) }

// Now returns the current virtual time since program start.
func (c *Context) Now() Time { return c.mc.Now() }

// HostBytes returns the master-host backing bytes of r (nil unless
// Config.Validate). Read only between TaskWait and further Task calls.
func (c *Context) HostBytes(r Region) []byte { return c.mc.HostBytes(r) }

// NestedCtx is the handle a Nested spawner uses to create tasks on the
// node executing the parent task.
type NestedCtx struct {
	lc *core.LocalCtx
}

// Nested attaches a spawner to the task: after the task's body completes
// on whichever node ran it, fn executes there and may create nested tasks
// that use the data the parent transferred or produced — the paper's
// scalable data decomposition (Section III.D.1). The parent completes
// when the nested tasks drain.
func Nested(fn func(nc *NestedCtx)) Clause {
	return func(d *core.TaskDef) {
		d.Spawner = func(v interface{}) {
			fn(&NestedCtx{lc: v.(*core.LocalCtx)})
		}
	}
}

// Node returns the node the nested tasks will run on.
func (nc *NestedCtx) Node() int { return nc.lc.Node() }

// Task creates a nested task; dependences are resolved against the other
// nested tasks of the same parent (sibling scope, as in the paper).
func (nc *NestedCtx) Task(work Work, clauses ...Clause) {
	def := core.TaskDef{Work: work}
	for _, cl := range clauses {
		cl(&def)
	}
	if def.Name == "" && work != nil {
		def.Name = work.Name()
	}
	nc.lc.Submit(def)
}

// Wait blocks the spawner until every nested task has finished. Nested
// must call it (directly or via returning after submitting nothing).
func (nc *NestedCtx) Wait() { nc.lc.Wait() }
