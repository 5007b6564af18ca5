package ompss

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// addWork adds v to each byte of its region.
type addWork struct {
	r Region
	v byte
}

func (w addWork) Name() string                      { return "add" }
func (w addWork) GPUCost(hw.GPUSpec) time.Duration  { return time.Millisecond }
func (w addWork) CPUCost(hw.NodeSpec) time.Duration { return 5 * time.Millisecond }
func (w addWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	b := store.Bytes(w.r)
	for i := range b {
		b[i] += w.v
	}
}

func testConfig(gpus int) Config {
	cfg := Config{Cluster: MultiGPUSystem(gpus), Validate: true}
	return cfg
}

func TestQuickstartStyleProgram(t *testing.T) {
	rt := New(testConfig(2))
	var out []byte
	stats, err := rt.Run(func(ctx *Context) {
		a := ctx.Alloc(4096)
		ctx.InitSeq(a, func(b []byte) {
			for i := range b {
				b[i] = 1
			}
		})
		ctx.Task(addWork{r: a, v: 2}, Target(CUDA), InOut(a))
		ctx.Task(addWork{r: a, v: 3}, Target(CUDA), InOut(a))
		ctx.TaskWait()
		out = append(out, ctx.HostBytes(a)[:4]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range out {
		if b != 6 {
			t.Fatalf("byte = %d, want 6", b)
		}
	}
	if stats.TasksCUDA != 2 {
		t.Fatalf("TasksCUDA = %d", stats.TasksCUDA)
	}
}

func TestSMPDefaultTarget(t *testing.T) {
	rt := New(testConfig(1))
	_, err := rt.Run(func(ctx *Context) {
		a := ctx.Alloc(64)
		ctx.InitSeq(a, nil)
		// No Target clause: SMP, like an un-annotated OmpSs task.
		ctx.Task(addWork{r: a, v: 1}, InOut(a))
		ctx.TaskWait()
		if got := ctx.HostBytes(a)[0]; got != 1 {
			t.Errorf("byte = %d, want 1", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClausesComposition(t *testing.T) {
	rt := New(testConfig(1))
	stats, err := rt.Run(func(ctx *Context) {
		a := ctx.Alloc(64)
		b := ctx.Alloc(64)
		c := ctx.Alloc(64)
		ctx.InitSeq(a, nil)
		ctx.InitSeq(b, nil)
		ctx.Task(task.FixedWork{Label: "multi", GPUTime: time.Millisecond},
			Target(CUDA), Name("renamed"), In(a, b), Out(c))
		ctx.TaskWaitOn(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksCUDA != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestClusterPresetRuns(t *testing.T) {
	cfg := Config{
		Cluster:      GPUCluster(2),
		Scheduler:    BreadthFirst,
		CachePolicy:  WriteBack,
		SlaveToSlave: true,
		Validate:     true,
	}
	rt := New(cfg)
	stats, err := rt.Run(func(ctx *Context) {
		for i := 0; i < 4; i++ {
			r := ctx.Alloc(1 << 16)
			ctx.InitSeq(r, nil)
			ctx.Task(addWork{r: r, v: 1}, Target(CUDA), InOut(r))
		}
		ctx.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksCUDA != 4 {
		t.Fatalf("TasksCUDA = %d", stats.TasksCUDA)
	}
}

func TestNoCopyDepsSkipsTransfers(t *testing.T) {
	rt := New(testConfig(1))
	stats, err := rt.Run(func(ctx *Context) {
		a := ctx.Alloc(1 << 20)
		ctx.InitSeq(a, nil)
		// Dependence-only task: no copy clauses, so no data moves (the
		// program promises the kernel doesn't need the data staged).
		ctx.Task(task.FixedWork{Label: "sync", GPUTime: time.Millisecond},
			Target(CUDA), InOut(a), NoCopyDeps())
		ctx.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesH2D != 0 || stats.BytesD2H != 0 {
		t.Fatalf("transfers happened despite NoCopyDeps: %+v", stats)
	}
}

// A clause is a value its constructor fills: one over one region, a device
// or a name allocates nothing.
func TestClausesAllocateNothing(t *testing.T) {
	r := Region{Addr: 1 << 20, Size: 256}
	var sink [4]Clause
	if n := testing.AllocsPerRun(100, func() {
		sink[0], sink[1], sink[2], sink[3] = InOut(r), In(r), Target(SMP), Name("x")
	}); n != 0 {
		t.Fatalf("%.1f allocations per four clauses, want 0", n)
	}
}
