package ompss

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

// fillVal writes a constant into its region.
type fillVal struct {
	r Region
	v float32
}

func (w fillVal) Name() string                      { return "fillVal" }
func (w fillVal) GPUCost(hw.GPUSpec) time.Duration  { return time.Millisecond }
func (w fillVal) CPUCost(hw.NodeSpec) time.Duration { return time.Millisecond }
func (w fillVal) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	f := unsafeF32(store.Bytes(w.r))
	for i := range f {
		f[i] = w.v
	}
}

func TestNestedClauseDecomposesOnCluster(t *testing.T) {
	cfg := Config{Cluster: GPUCluster(3), Validate: true, SlaveToSlave: true, Scheduler: BreadthFirst}
	rt := New(cfg)
	const parents, parts = 3, 4
	var regs [parents][parts]Region
	var ranOn [parents]int
	stats, err := rt.Run(func(ctx *Context) {
		for pi := 0; pi < parents; pi++ {
			pi := pi
			var deps []Clause
			for j := 0; j < parts; j++ {
				regs[pi][j] = ctx.Alloc(1024)
				deps = append(deps, Out(regs[pi][j]))
			}
			clauses := append(deps,
				Name("decompose"),
				Nested(func(nc *NestedCtx) {
					ranOn[pi] = nc.Node()
					for j := 0; j < parts; j++ {
						nc.Task(fillVal{r: regs[pi][j], v: float32(10*pi + j)},
							Target(CUDA), Out(regs[pi][j]))
					}
					nc.Wait()
				}))
			ctx.Task(nil, clauses...)
		}
		ctx.TaskWait()
		for pi := 0; pi < parents; pi++ {
			for j := 0; j < parts; j++ {
				got := unsafeF32(ctx.HostBytes(regs[pi][j]))[0]
				if got != float32(10*pi+j) {
					t.Errorf("regs[%d][%d] = %v, want %d", pi, j, got, 10*pi+j)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksCUDA != parents*parts {
		t.Fatalf("TasksCUDA = %d", stats.TasksCUDA)
	}
	if stats.TasksRemote == 0 {
		t.Fatal("no parent ran remotely")
	}
	// Each spawner runs where its parent ran, so some report a slave.
	if ranOn == [parents]int{} {
		t.Fatalf("every spawner reports node 0, but %d tasks ran remotely", stats.TasksRemote)
	}
	for pi, n := range ranOn {
		if n < 0 || n >= 3 {
			t.Errorf("spawner %d reports node %d of 3", pi, n)
		}
	}
}
