package ompss

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// touchN is a kernel reading/writing nothing, used to observe pure copy
// clause behavior.
type touchN struct{ d time.Duration }

func (w touchN) Name() string                      { return "touch" }
func (w touchN) GPUCost(hw.GPUSpec) time.Duration  { return w.d }
func (w touchN) CPUCost(hw.NodeSpec) time.Duration { return w.d }
func (w touchN) Run(*memspace.Store)               {}

func TestCopyInWithoutDependence(t *testing.T) {
	// CopyIn moves data to the device without creating a dependence: two
	// tasks copy-in the same region and still run concurrently.
	cfg := Config{Cluster: MultiGPUSystem(2)}
	rt := New(cfg)
	stats, err := rt.Run(func(ctx *Context) {
		shared := ctx.Alloc(1 << 20)
		ctx.InitSeq(shared, nil)
		for i := 0; i < 2; i++ {
			ctx.Task(touchN{d: 10 * time.Millisecond},
				Target(CUDA), NoCopyDeps(), CopyIn(shared))
		}
		ctx.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two 10ms tasks on two GPUs: ~10ms, not 20ms.
	if stats.ElapsedSeconds > 0.015 {
		t.Fatalf("copy-in tasks serialized: %.3fs", stats.ElapsedSeconds)
	}
	// And the data did move to both devices.
	if stats.BytesH2D != 2<<20 {
		t.Fatalf("H2D = %d, want both devices staged", stats.BytesH2D)
	}
}

func TestCopyOutAndCopyInOutClauses(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(1), Validate: true}
	rt := New(cfg)
	stats, err := rt.Run(func(ctx *Context) {
		a := ctx.Alloc(4096)
		b := ctx.Alloc(4096)
		ctx.InitSeq(a, nil)
		ctx.InitSeq(b, nil)
		ctx.Task(touchN{d: time.Millisecond}, Target(CUDA), NoCopyDeps(), CopyOut(a), CopyInOut(b))
		ctx.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	// copy_inout staged b in; copy_out allocated a without transfer; the
	// final flush brought both back.
	if stats.BytesH2D != 4096 {
		t.Fatalf("H2D = %d, want only the inout region staged", stats.BytesH2D)
	}
	if stats.BytesD2H != 8192 {
		t.Fatalf("D2H = %d, want both regions flushed", stats.BytesD2H)
	}
}

func TestTaskWaitOnPublicAPI(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(2), Validate: true}
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		fast := ctx.Alloc(64)
		slow := ctx.Alloc(64)
		ctx.InitSeq(fast, nil)
		ctx.InitSeq(slow, nil)
		ctx.Task(fillVal{r: fast, v: 5}, Target(CUDA), Out(fast))
		ctx.Task(touchN{d: 100 * time.Millisecond}, Target(CUDA), InOut(slow))
		before := ctx.Now()
		ctx.TaskWaitOn(fast)
		if got := unsafeF32(ctx.HostBytes(fast))[0]; got != 5 {
			t.Errorf("fast = %v after TaskWaitOn", got)
		}
		if waited := (ctx.Now() - before).Seconds(); waited > 0.05 {
			t.Errorf("TaskWaitOn blocked %.3fs on unrelated slow task", waited)
		}
		ctx.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNameClauseOverridesWorkName(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(1)}
	rec := NewTrace()
	cfg.Trace = rec
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		r := ctx.Alloc(64)
		ctx.Task(touchN{d: time.Millisecond}, Target(CUDA), Name("renamed"), Out(r))
		ctx.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rec.Spans() {
		if s.Name == "renamed" {
			found = true
		}
	}
	if !found {
		t.Fatal("renamed task not in trace")
	}
}

func TestNilWorkBecomesNoop(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(1), Validate: true}
	rt := New(cfg)
	stats, err := rt.Run(func(ctx *Context) {
		r := ctx.Alloc(64)
		ctx.Task(nil, Name("sync-only"), Out(r), NoCopyDeps())
		ctx.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksSMP != 1 {
		t.Fatalf("tasks = %+v", stats)
	}
}

func TestRuntimeCannotBeReused(t *testing.T) {
	rt := New(Config{Cluster: MultiGPUSystem(1)})
	if _, err := rt.Run(func(ctx *Context) {}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reuse")
		}
	}()
	_, _ = rt.Run(func(ctx *Context) {})
}

func TestDeviceAndAccessStrings(t *testing.T) {
	if CUDA.String() != "cuda" || SMP.String() != "smp" {
		t.Fatal("device strings")
	}
	if task.Red.String() != "reduction" || task.In.String() != "in" {
		t.Fatal("access strings")
	}
	if task.Device(9).String() == "" || task.Access(9).String() == "" {
		t.Fatal("unknown values must still print")
	}
}

func TestCostOnlyModeHasNoBytes(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(1)} // Validate off
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		r := ctx.Alloc(64)
		ctx.InitSeq(r, func(b []byte) {
			t.Error("fill must not run in cost-only mode")
		})
		ctx.Task(fillVal{r: r, v: 1}, Target(CUDA), InOut(r))
		ctx.TaskWait()
		if ctx.HostBytes(r) != nil {
			t.Error("HostBytes should be nil in cost-only mode")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
