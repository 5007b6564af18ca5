package ompss

import (
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// partialSum accumulates the sum of its input chunk into acc[0]
// (a reduction body: it adds to whatever the accumulator holds).
type partialSum struct {
	in, acc Region
	cost    time.Duration
}

func (w partialSum) Name() string                      { return "psum" }
func (w partialSum) GPUCost(hw.GPUSpec) time.Duration  { return w.cost }
func (w partialSum) CPUCost(hw.NodeSpec) time.Duration { return w.cost }
func (w partialSum) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	in := unsafeF32(store.Bytes(w.in))
	acc := unsafeF32(store.Bytes(w.acc))
	var s float32
	for _, v := range in {
		s += v
	}
	acc[0] += s
}

func TestReductionComputesCorrectSum(t *testing.T) {
	const chunks = 8
	const chunkElems = 1024
	cfg := Config{Cluster: MultiGPUSystem(4), Validate: true}
	rt := New(cfg)
	var got float32
	_, err := rt.Run(func(ctx *Context) {
		acc := ctx.Alloc(16)
		ctx.InitSeq(acc, func(b []byte) { unsafeF32(b)[0] = 100 }) // prior value folds in
		var want float32 = 100
		ins := make([]Region, chunks)
		for i := range ins {
			ins[i] = ctx.Alloc(chunkElems * 4)
			val := float32(i + 1)
			ctx.InitSeq(ins[i], func(b []byte) {
				v := unsafeF32(b)
				for j := range v {
					v[j] = val
				}
			})
			want += val * chunkElems
		}
		for i := range ins {
			ctx.Task(partialSum{in: ins[i], acc: acc, cost: 5 * time.Millisecond},
				Target(CUDA), In(ins[i]), Reduction(acc, SumFloat32))
		}
		ctx.TaskWait()
		got = unsafeF32(ctx.HostBytes(acc))[0]
		if got != want {
			t.Errorf("sum = %v, want %v", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReductionTasksRunConcurrently(t *testing.T) {
	// 8 x 10ms reduction tasks on 4 GPUs must take ~20ms, not 80ms: the
	// whole point of the reduction clause is that they need no mutual
	// ordering (inout would serialize them).
	run := func(reduce bool) float64 {
		cfg := Config{Cluster: MultiGPUSystem(4)}
		rt := New(cfg)
		stats, err := rt.Run(func(ctx *Context) {
			acc := ctx.Alloc(16)
			ctx.InitSeq(acc, nil)
			for i := 0; i < 8; i++ {
				in := ctx.Alloc(4096)
				ctx.InitSeq(in, nil)
				clause := Reduction(acc, SumFloat32)
				if !reduce {
					clause = InOut(acc)
				}
				ctx.Task(partialSum{in: in, acc: acc, cost: 10 * time.Millisecond},
					Target(CUDA), In(in), clause)
			}
			ctx.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.ElapsedSeconds
	}
	red := run(true)
	serial := run(false)
	if red > 0.045 {
		t.Fatalf("reduction tasks took %.3fs; they should run concurrently (~0.02s)", red)
	}
	if serial < 0.08 {
		t.Fatalf("inout chain took %.3fs; expected serialization (~0.08s)", serial)
	}
}

func TestReductionThenReaderOrdering(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(2), Validate: true}
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		acc := ctx.Alloc(16)
		out := ctx.Alloc(16)
		ctx.InitSeq(acc, nil)
		for i := 0; i < 4; i++ {
			in := ctx.Alloc(256)
			ctx.InitSeq(in, func(b []byte) {
				v := unsafeF32(b)
				for j := range v {
					v[j] = 1
				}
			})
			ctx.Task(partialSum{in: in, acc: acc, cost: time.Millisecond},
				Target(CUDA), In(in), Reduction(acc, SumFloat32))
		}
		// A reader task: must see the fully combined value.
		ctx.Task(copyFirst{src: acc, dst: out}, Target(SMP), In(acc), Out(out))
		ctx.TaskWait()
		if got := unsafeF32(ctx.HostBytes(out))[0]; got != 4*64 {
			t.Errorf("reader saw %v, want %v", got, 4*64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// copyFirst copies src[0] into dst[0].
type copyFirst struct{ src, dst Region }

func (w copyFirst) Name() string                      { return "copyFirst" }
func (w copyFirst) GPUCost(hw.GPUSpec) time.Duration  { return time.Microsecond }
func (w copyFirst) CPUCost(hw.NodeSpec) time.Duration { return time.Microsecond }
func (w copyFirst) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	unsafeF32(store.Bytes(w.dst))[0] = unsafeF32(store.Bytes(w.src))[0]
}

func TestReductionMixedSMPAndGPU(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(2), Validate: true}
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		acc := ctx.Alloc(16)
		ctx.InitSeq(acc, nil)
		for i := 0; i < 6; i++ {
			in := ctx.Alloc(128)
			ctx.InitSeq(in, func(b []byte) {
				v := unsafeF32(b)
				for j := range v {
					v[j] = 2
				}
			})
			dev := CUDA
			if i%3 == 0 {
				dev = SMP // host participants accumulate into the master copy
			}
			ctx.Task(partialSum{in: in, acc: acc, cost: time.Millisecond},
				Target(dev), In(in), Reduction(acc, SumFloat32))
		}
		ctx.TaskWait()
		if got := unsafeF32(ctx.HostBytes(acc))[0]; got != 6*2*32 {
			t.Errorf("sum = %v, want %v", got, 6*2*32)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReductionOnClusterRunsAtMaster(t *testing.T) {
	cfg := Config{Cluster: GPUCluster(3), Validate: true, SlaveToSlave: true}
	rt := New(cfg)
	stats, err := rt.Run(func(ctx *Context) {
		acc := ctx.Alloc(16)
		ctx.InitSeq(acc, nil)
		for i := 0; i < 4; i++ {
			in := ctx.Alloc(256)
			ctx.InitSeq(in, func(b []byte) {
				v := unsafeF32(b)
				for j := range v {
					v[j] = 1
				}
			})
			ctx.Task(partialSum{in: in, acc: acc, cost: time.Millisecond},
				Target(CUDA), In(in), Reduction(acc, SumFloat32))
		}
		ctx.TaskWait()
		if got := unsafeF32(ctx.HostBytes(acc))[0]; got != 4*64 {
			t.Errorf("sum = %v, want %v", got, 4*64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-node combining is not implemented: every reduction task must
	// have run on the master node.
	for node, count := range stats.TasksPerNode {
		if node != 0 && count > 0 {
			t.Fatalf("reduction task ran on node %d", node)
		}
	}
}

func TestReductionWithoutCombinerErrors(t *testing.T) {
	cfg := Config{Cluster: MultiGPUSystem(1)}
	rt := New(cfg)
	_, err := rt.Run(func(ctx *Context) {
		acc := ctx.Alloc(16)
		ctx.InitSeq(acc, nil)
		// Hand-build a Red dependence without registering a combiner.
		ctx.Task(partialSum{in: acc, acc: acc, cost: time.Millisecond},
			Target(CUDA), regionClause(clauseDeps, task.Red, []Region{acc}))
	})
	if err == nil {
		t.Fatal("expected Run to surface the missing-combiner error")
	}
	if !strings.Contains(err.Error(), "no combiner") {
		t.Fatalf("error = %v, want a missing-combiner message", err)
	}
}

// A reader of the value before a reduction phase must not see any of the
// phase's partials, however late it runs: every reducer of the phase waits
// for it, not only the first. The reader here waits behind a slow writer,
// so a reducer that does not wait for it runs first.
func TestReaderBeforeReductionSeesTheOldValue(t *testing.T) {
	for _, dev := range []Device{CUDA, SMP} {
		rt := New(Config{Cluster: MultiGPUSystem(2), Validate: true})
		_, err := rt.Run(func(ctx *Context) {
			acc, out := ctx.Alloc(16), ctx.Alloc(16)
			ctx.InitSeq(acc, func(b []byte) { unsafeF32(b)[0] = 5 })
			slow := task.FixedWork{Label: "slow", CPUTime: 10 * time.Millisecond, Body: func(s *memspace.Store) {
				if s != nil {
					unsafeF32(s.Bytes(out))[0] = 0
				}
			}}
			ctx.Task(slow, Target(SMP), Out(out))
			ctx.Task(copyFirst{src: acc, dst: out}, Target(SMP), In(acc), InOut(out))
			for i := 0; i < 3; i++ {
				in := ctx.Alloc(256)
				ctx.InitSeq(in, func(b []byte) {
					v := unsafeF32(b)
					for j := range v {
						v[j] = 1
					}
				})
				ctx.Task(partialSum{in: in, acc: acc, cost: time.Millisecond}, Target(dev), In(in), Reduction(acc, SumFloat32))
			}
			ctx.TaskWait()
			if got := unsafeF32(ctx.HostBytes(out))[0]; got != 5 {
				t.Errorf("%v reducers: reader saw %v, want 5", dev, got)
			}
			if got := unsafeF32(ctx.HostBytes(acc))[0]; got != 5+3*64 {
				t.Errorf("%v reducers: sum = %v, want %v", dev, got, 5+3*64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Every reader of a reduced value sees the whole reduction, the second
// as well as the first.
func TestEveryReaderAfterReductionSeesIt(t *testing.T) {
	rt := New(Config{Cluster: MultiGPUSystem(2), Validate: true})
	_, err := rt.Run(func(ctx *Context) {
		acc, in := ctx.Alloc(16), ctx.Alloc(256)
		ctx.InitSeq(acc, func(b []byte) { unsafeF32(b)[0] = 5 })
		ctx.InitSeq(in, func(b []byte) {
			v := unsafeF32(b)
			for j := range v {
				v[j] = 1
			}
		})
		ctx.Task(partialSum{in: in, acc: acc, cost: 10 * time.Millisecond}, Target(CUDA), In(in), Reduction(acc, SumFloat32))
		outs := []Region{ctx.Alloc(16), ctx.Alloc(16)}
		for _, out := range outs {
			ctx.Task(copyFirst{src: acc, dst: out}, Target(SMP), In(acc), Out(out))
		}
		ctx.TaskWait()
		for i, out := range outs {
			if got := unsafeF32(ctx.HostBytes(out))[0]; got != 5+64 {
				t.Errorf("reader %d saw %v, want %v", i, got, 5+64)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Waiting on an accumulator waits for its pending reducers and reads the
// combined value: a reducer produces the accumulator's current version
// as much as a writer does.
func TestTaskWaitOnWaitsForReduction(t *testing.T) {
	rt := New(Config{Cluster: MultiGPUSystem(2), Validate: true})
	_, err := rt.Run(func(ctx *Context) {
		acc, in := ctx.Alloc(16), ctx.Alloc(256)
		ctx.InitSeq(acc, func(b []byte) { unsafeF32(b)[0] = 5 })
		ctx.InitSeq(in, func(b []byte) {
			v := unsafeF32(b)
			for j := range v {
				v[j] = 1
			}
		})
		ctx.Task(partialSum{in: in, acc: acc, cost: 10 * time.Millisecond}, Target(CUDA), In(in), Reduction(acc, SumFloat32))
		ctx.TaskWaitOn(acc)
		if got := unsafeF32(ctx.HostBytes(acc))[0]; got != 5+64 {
			t.Errorf("acc = %v after TaskWaitOn, want %v", got, 5+64)
		}
		ctx.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRejectedTaskLeavesNothingPending: a task whose clauses the
// dependence graph rejects (here a region under both reduction and inout)
// is reported by Run and never counted as pending, in the main program's
// scope and in a nested spawner's. Counted, it would leave TaskWait or the
// spawner's Wait blocked forever and Run would end in a DeadlockError.
func TestRejectedTaskLeavesNothingPending(t *testing.T) {
	const mixes = "mixes reduction with other accesses in one task"
	check := func(t *testing.T, err error, name string, regs []Region, host func(Region) float32) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), mixes) || !strings.Contains(err.Error(), "("+name+",") {
			t.Fatalf("Run error = %v, want the depgraph error naming %s", err, name)
		}
		for i, r := range regs {
			if got := host(r); got != float32(i+1) {
				t.Errorf("region %d holds %v, want %d", i, got, i+1)
			}
		}
	}
	t.Run("main batch", func(t *testing.T) {
		var regs []Region
		vals := map[Region]float32{}
		waited := false
		_, err := New(Config{Cluster: MultiGPUSystem(2), Validate: true}).Run(func(ctx *Context) {
			acc := ctx.Alloc(16)
			regs = []Region{ctx.Alloc(1024), ctx.Alloc(1024)}
			ctx.TaskBatch([]TaskSpec{
				{Work: fillVal{r: regs[0], v: 1}, Clauses: []Clause{Target(CUDA), Out(regs[0])}},
				{Clauses: []Clause{Name("mixed"), Reduction(acc, SumFloat32), InOut(acc)}},
				{Work: fillVal{r: regs[1], v: 2}, Clauses: []Clause{Target(CUDA), Out(regs[1])}},
			})
			ctx.TaskWait()
			waited = true
			for _, r := range regs {
				vals[r] = unsafeF32(ctx.HostBytes(r))[0]
			}
		})
		if !waited {
			t.Fatalf("TaskWait did not return: %v", err)
		}
		check(t, err, "mixed", regs, func(r Region) float32 { return vals[r] })
	})
	t.Run("nested only task", func(t *testing.T) {
		var regs []Region
		vals := map[Region]float32{}
		waited, spawnerWaited := false, false
		_, err := New(Config{Cluster: MultiGPUSystem(2), Validate: true}).Run(func(ctx *Context) {
			acc := ctx.Alloc(16)
			regs = []Region{ctx.Alloc(1024), ctx.Alloc(1024)}
			ctx.Task(fillVal{r: regs[0], v: 1}, Target(CUDA), Out(regs[0]),
				Nested(func(nc *NestedCtx) {
					nc.Task(nil, Name("nested-mixed"), Reduction(acc, SumFloat32), InOut(acc))
					nc.Wait()
					spawnerWaited = true
				}))
			ctx.Task(fillVal{r: regs[1], v: 2}, Target(CUDA), Out(regs[1]))
			ctx.TaskWait()
			waited = true
			for _, r := range regs {
				vals[r] = unsafeF32(ctx.HostBytes(r))[0]
			}
		})
		if !spawnerWaited || !waited {
			t.Fatalf("spawner Wait returned %v, TaskWait returned %v: %v", spawnerWaited, waited, err)
		}
		check(t, err, "nested-mixed", regs, func(r Region) float32 { return vals[r] })
	})
}
