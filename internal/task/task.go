// Package task defines the shared vocabulary of the runtime: task
// descriptors, dependence clauses (input/output/inout), copy clauses, and
// target devices, mirroring the OmpSs directives of Section II of the
// paper.
package task

import (
	"fmt"
	"slices"
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

// Task is one task instance flowing through the runtime. A million-task
// graph holds every Task live at once: the clauses few tasks carry sit
// behind one pointer, the task is its own dependence-graph node, and a
// Task is 112 bytes.
type Task struct {
	ID     ID
	Name   string
	Device Device
	// CopyDeps indicates the copy_deps clause: dependence clauses double as
	// copy clauses. It and copiesAreDeps, set once Copies() is known to be
	// Deps itself, share the one-byte Device's word with NodeDone and
	// NodeWait.
	CopyDeps      bool
	copiesAreDeps bool

	// The Node fields are the task's node in its parent's dependence graph
	// (a task belongs to at most one graph at a time). Only
	// internal/depgraph reads or writes them. NodeWait counts the
	// unfinished predecessors and NodeDone is set at finish. NodeSuccs
	// lists the tasks waiting on this one, in arc order; it is non-nil
	// exactly while the task is submitted and unfinished, and starts as
	// NodeFirst[:0], so the first arc (a chain's only one) is stored inline.
	NodeDone  bool
	NodeWait  int32
	NodeSuccs []*Task
	NodeFirst [1]*Task

	// Deps are the dependence clauses used to build the task graph.
	Deps []Dep
	Work Work

	// rare is nil unless SetClauses set a clause or Copies() is merged.
	rare *rareClauses
}

// rareClauses holds the clauses of SetClauses and a merged Copies() list.
type rareClauses struct {
	extraCopies []Dep
	reductions  map[uint64]Combiner
	spawner     func(interface{})
	copies      []Dep
}

// noClauses stands for the rare clauses of a task that has none.
var noClauses rareClauses

func (t *Task) clauses() *rareClauses {
	if t.rare == nil {
		return &noClauses
	}
	return t.rare
}

// SetClauses sets the clauses few tasks carry, and allocates nothing when
// there are none; call it before Copies. extraCopies are copy clauses
// beyond Deps; reductions maps a Red region's address to the combiner that
// folds a partial result into it; spawner runs after Work on the executing
// node and submits nested tasks through the context it gets (core.LocalCtx,
// Section III.D.1), and the task completes after they drain.
func (t *Task) SetClauses(extraCopies []Dep, reductions map[uint64]Combiner, spawner func(interface{})) {
	if len(extraCopies) > 0 || len(reductions) > 0 || spawner != nil {
		t.rare = &rareClauses{extraCopies: extraCopies, reductions: reductions, spawner: spawner}
	}
}

// ExtraCopies returns the copy clauses beyond Deps (see SetClauses).
func (t *Task) ExtraCopies() []Dep { return t.clauses().extraCopies }

// Reductions returns the combiners of the Red clauses by region address.
func (t *Task) Reductions() map[uint64]Combiner { return t.clauses().reductions }

// Spawner returns the nested-task spawner, or nil (see SetClauses).
func (t *Task) Spawner() func(interface{}) { return t.clauses().spawner }

// Copies returns the effective copy clause list: the dependence clauses
// (when CopyDeps is set) followed by ExtraCopies, with duplicate clauses on
// one exact region merged into a single entry (differing accesses behave
// as InOut, as in the dependence graph). Distinct overlapping regions stay
// separate entries: each gets its own cache line and the stores alias
// their shared bytes. The list is derived on first use and cached, so the
// clauses must not change afterwards and every consumer — scoring,
// staging, pinning, publishing — iterates the same one. When the
// dependence clauses alone are the list, and already name distinct regions,
// the list is Deps itself.
func (t *Task) Copies() []Dep {
	if t.copiesAreDeps {
		return t.Deps
	}
	if c := t.clauses().copies; c != nil {
		return c
	}
	extra := t.ExtraCopies()
	if t.CopyDeps && len(extra) == 0 && DistinctRegions(t.Deps) {
		t.copiesAreDeps = true
		return t.Deps
	}
	var deps []Dep
	if t.CopyDeps {
		deps = t.Deps
	}
	copies := make([]Dep, 0, len(deps)+len(extra))
	for _, clauses := range [2][]Dep{deps, extra} {
		for _, c := range clauses {
			switch i := slices.IndexFunc(copies, c.sameRegion); {
			case i < 0:
				copies = append(copies, c)
			case copies[i].Access != c.Access:
				copies[i].Access = InOut
			}
		}
	}
	if len(copies) > 0 {
		if t.rare == nil {
			t.rare = &rareClauses{}
		}
		t.rare.copies = copies
	}
	return copies
}

// DistinctRegions reports whether no two clauses name the same region.
func DistinctRegions(deps []Dep) bool {
	for i, d := range deps {
		if slices.ContainsFunc(deps[:i], d.sameRegion) {
			return false
		}
	}
	return true
}

func (d Dep) sameRegion(e Dep) bool { return d.Region == e.Region }

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
