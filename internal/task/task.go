// Package task defines the shared vocabulary of the runtime: task
// descriptors, dependence clauses (input/output/inout), copy clauses, and
// target devices, mirroring the OmpSs directives of Section II of the
// paper.
package task

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// Device selects the target architecture of a task (the paper's
// `#pragma omp target device(...)` clause).
type Device uint8

const (
	// SMP tasks run on a host CPU core (the default when no target is given).
	SMP Device = iota
	// CUDA tasks run on a GPU.
	CUDA
)

func (d Device) String() string {
	switch d {
	case SMP:
		return "smp"
	case CUDA:
		return "cuda"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// Access is the dependence direction of one clause.
type Access int

const (
	// In corresponds to the input() clause: the task reads the region.
	In Access = iota
	// Out corresponds to the output() clause: the task fully overwrites it.
	Out
	// InOut corresponds to the inout() clause.
	InOut
	// Red is a reduction access (the paper's Section VII future work,
	// implemented here): tasks reducing into the same region commute with
	// each other, accumulate into per-device private copies, and the
	// runtime combines the partial results before the next reader.
	Red
)

func (a Access) String() string {
	switch a {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	case Red:
		return "reduction"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Reads reports whether the access reads the prior value. Reduction
// accesses do not: each participant starts from the identity and the
// prior value is folded in at combine time.
func (a Access) Reads() bool { return a == In || a == InOut }

// Writes reports whether the access produces a new value. Reduction
// accesses produce only partial values, combined later by the runtime.
func (a Access) Writes() bool { return a == Out || a == InOut }

// Dep is one dependence (or copy) clause instance.
type Dep struct {
	Region memspace.Region
	Access Access
}

// ID uniquely identifies a task within one program run.
type ID int64

// Work is the computational body of a task: a cost model for each device
// class and an optional real implementation run against the executing
// address space's backing store (validation mode). Implementations live in
// internal/kernels; the runtime treats them opaquely, exactly as Nanos++
// treats user-provided CUDA kernels.
type Work interface {
	Name() string
	// GPUCost models the kernel duration on a GPU with the given spec.
	GPUCost(spec hw.GPUSpec) time.Duration
	// CPUCost models the duration on one host core.
	CPUCost(spec hw.NodeSpec) time.Duration
	// Run executes the body against store (nil store: cost-only, skip).
	Run(store *memspace.Store)
}

// Task is one task instance flowing through the runtime.
type Task struct {
	ID     ID
	Name   string
	Device Device
	// CopyDeps indicates the copy_deps clause: dependence clauses double as
	// copy clauses. (Kept next to the one-byte Device so the two share a
	// word: a million-task graph holds every Task live at once.)
	CopyDeps bool
	// Deps are the dependence clauses used to build the task graph.
	Deps []Dep
	// ExtraCopies are explicit copy_in/copy_out/copy_inout clauses beyond
	// the dependence list.
	ExtraCopies []Dep
	// Reductions maps a region address to the combiner folding a partial
	// result into the accumulator, for Red dependences.
	Reductions map[uint64]Combiner
	Work       Work

	// Parent is the task that created this one (nil for the implicit main
	// task). Dependencies only connect siblings: tasks with the same Parent.
	Parent *Task

	// Spawner, when set, runs after the task's own Work completes, in the
	// context of the node executing the task ("Tasks executed in a remote
	// node can create new tasks that use the data transferred or created
	// by their parent task. This allows scalable data decomposition" —
	// Section III.D.1). It receives a runtime-provided local context
	// (core.LocalCtx) for submitting and awaiting nested tasks; the parent
	// task completes only after the nested tasks drain.
	Spawner func(interface{})

	// DepNode is an opaque slot owned by the dependency graph: the task's
	// graph node, stored on the task itself (set at submit, cleared at
	// finish) so the million-task hot path pays no graph-side map lookup
	// per task. A task belongs to at most one graph at a time (its
	// parent's extent).
	DepNode any

	// copies caches Copies(); non-nil once derived.
	copies []Dep
}

// Copies returns the effective copy clause list: the dependence clauses
// (when CopyDeps is set) followed by ExtraCopies, with duplicate clauses on
// one exact region merged into a single entry (differing accesses behave
// as InOut, as in depgraph.Normalize). Distinct overlapping regions stay
// separate entries: each gets its own cache line and the stores alias
// their shared bytes. The list is derived on first use and cached, so the
// clauses must not change afterwards and every consumer — scoring,
// staging, pinning, publishing — iterates the same one.
func (t *Task) Copies() []Dep {
	if t.copies != nil {
		return t.copies
	}
	var deps []Dep
	if t.CopyDeps {
		deps = t.Deps
	}
	t.copies = make([]Dep, 0, len(deps)+len(t.ExtraCopies))
	for _, clauses := range [2][]Dep{deps, t.ExtraCopies} {
	next:
		for _, c := range clauses {
			for i := range t.copies {
				if t.copies[i].Region == c.Region {
					if t.copies[i].Access != c.Access {
						t.copies[i].Access = InOut
					}
					continue next
				}
			}
			t.copies = append(t.copies, c)
		}
	}
	return t.copies
}

func (t *Task) String() string {
	return fmt.Sprintf("task#%d(%s,%v)", t.ID, t.Name, t.Device)
}

// NoWork is a Work with zero cost and no body, for pure-synchronization
// tasks and tests.
type NoWork struct{ Label string }

// Name implements Work.
func (n NoWork) Name() string {
	if n.Label == "" {
		return "nop"
	}
	return n.Label
}

// GPUCost implements Work.
func (NoWork) GPUCost(hw.GPUSpec) time.Duration { return 0 }

// CPUCost implements Work.
func (NoWork) CPUCost(hw.NodeSpec) time.Duration { return 0 }

// Run implements Work.
func (NoWork) Run(*memspace.Store) {}

// FixedWork is a Work with constant modeled durations, for tests and
// microbenchmarks.
type FixedWork struct {
	Label   string
	GPUTime time.Duration
	CPUTime time.Duration
	Body    func(store *memspace.Store)
}

// Name implements Work.
func (f FixedWork) Name() string { return f.Label }

// GPUCost implements Work.
func (f FixedWork) GPUCost(hw.GPUSpec) time.Duration { return f.GPUTime }

// CPUCost implements Work.
func (f FixedWork) CPUCost(hw.NodeSpec) time.Duration { return f.CPUTime }

// Run implements Work.
func (f FixedWork) Run(store *memspace.Store) {
	if f.Body != nil {
		f.Body(store)
	}
}

// Combiner folds a partial reduction result into the accumulator, both
// given as backing bytes (validation mode; cost-only runs never call it).
type Combiner func(acc, partial []byte)
