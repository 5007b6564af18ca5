package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// testGPU is a small, fast GPU spec for unit tests.
func testGPU(memBytes uint64) hw.GPUSpec {
	return hw.GPUSpec{
		Name:                 "test-gpu",
		PeakSPFlops:          1e12,
		KernelEfficiency:     0.5,
		MemBandwidth:         100e9,
		MemBytes:             memBytes,
		KernelLaunchOverhead: 5 * time.Microsecond,
		PCIeBandwidth:        5e9,
		PCIeLatency:          10 * time.Microsecond,
		PinnedCopyBandwidth:  10e9,
		Power:                hw.PowerDraw{IdleWatts: 30, BusyWatts: 200},
	}
}

func testNode(gpus int, memBytes uint64) hw.NodeSpec {
	specs := make([]hw.GPUSpec, gpus)
	for i := range specs {
		specs[i] = testGPU(memBytes)
	}
	return hw.NodeSpec{
		Name:             "test-node",
		CPUCores:         8,
		CPUFlops:         5e9,
		HostMemBandwidth: 10e9,
		HostMemBytes:     1 << 34,
		HostPower:        hw.PowerDraw{IdleWatts: 100, BusyWatts: 220},
		GPUs:             specs,
	}
}

func testCluster(nodes, gpusPerNode int, gpuMem uint64) hw.ClusterSpec {
	ns := make([]hw.NodeSpec, nodes)
	for i := range ns {
		ns[i] = testNode(gpusPerNode, gpuMem)
	}
	return hw.ClusterSpec{
		Name:  "test-cluster",
		Nodes: ns,
		Net:   hw.NetSpec{Name: "test-net", Bandwidth: 1e9, Latency: 5 * time.Microsecond, PerMessageOverhead: time.Microsecond},
	}
}

func baseCfg(nodes, gpus int) Config {
	return Config{
		Cluster:          testCluster(nodes, gpus, 1<<26),
		Scheduler:        sched.Dependencies,
		CachePolicy:      coherence.WriteBack,
		NonBlockingCache: true,
		SlaveToSlave:     true,
		Validate:         true,
	}
}

// incWork is a kernel that adds delta to every byte of its region.
type incWork struct {
	r     memspace.Region
	delta byte
	cost  time.Duration
}

func (w incWork) Name() string                      { return "inc" }
func (w incWork) GPUCost(hw.GPUSpec) time.Duration  { return w.cost }
func (w incWork) CPUCost(hw.NodeSpec) time.Duration { return w.cost * 10 }
func (w incWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	b := store.Bytes(w.r)
	for i := range b {
		b[i] += w.delta
	}
}

// setWork writes v into every byte of its region: an Out body, which
// owns every byte it declares and reads none of them.
type setWork struct {
	r    memspace.Region
	v    byte
	cost time.Duration
}

func (w setWork) Name() string                      { return "set" }
func (w setWork) GPUCost(hw.GPUSpec) time.Duration  { return w.cost }
func (w setWork) CPUCost(hw.NodeSpec) time.Duration { return w.cost * 10 }
func (w setWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	fill(store.Bytes(w.r), w.v)
}

// sumWork writes the elementwise sum of regions a and b into c.
type sumWork struct {
	a, b, c memspace.Region
	cost    time.Duration
}

func (w sumWork) Name() string                      { return "sum" }
func (w sumWork) GPUCost(hw.GPUSpec) time.Duration  { return w.cost }
func (w sumWork) CPUCost(hw.NodeSpec) time.Duration { return w.cost * 10 }
func (w sumWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	a, b, c := store.Bytes(w.a), store.Bytes(w.b), store.Bytes(w.c)
	for i := range c {
		c[i] = a[i] + b[i]
	}
}

func inDep(r memspace.Region) task.Dep    { return task.Dep{Region: r, Access: task.In} }
func outDep(r memspace.Region) task.Dep   { return task.Dep{Region: r, Access: task.Out} }
func inoutDep(r memspace.Region) task.Dep { return task.Dep{Region: r, Access: task.InOut} }

func TestSingleGPUTaskRoundTrip(t *testing.T) {
	rt := New(baseCfg(1, 1))
	var result []byte
	stats, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(1024)
		mc.InitSeq(r, func(b []byte) {
			for i := range b {
				b[i] = 10
			}
		})
		mc.Submit(TaskDef{
			Name: "inc", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(r)},
			Work: incWork{r: r, delta: 5, cost: time.Millisecond},
		})
		mc.TaskWait()
		result = append([]byte(nil), mc.HostBytes(r)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range result {
		if b != 15 {
			t.Fatalf("byte %d = %d, want 15", i, b)
		}
	}
	if stats.TasksCUDA != 1 {
		t.Fatalf("TasksCUDA = %d", stats.TasksCUDA)
	}
	if stats.BytesH2D != 1024 || stats.BytesD2H != 1024 {
		t.Fatalf("H2D/D2H = %d/%d, want 1024/1024", stats.BytesH2D, stats.BytesD2H)
	}
	if stats.ElapsedSeconds <= 0.001 {
		t.Fatalf("elapsed = %v, kernel cost not accounted", stats.ElapsedSeconds)
	}
}

// runDuplicateCopyClauses runs one task declaring In(r) and Out(r) on the
// same region — the shape depgraph.Normalize treats as inout — and checks
// the runtime stages, pins, publishes and scores it as a single InOut copy.
func runDuplicateCopyClauses(t *testing.T, dev task.Device) Stats {
	t.Helper()
	rt := New(baseCfg(1, 1))
	var result []byte
	var scores []uint64
	stats, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(1024)
		mc.InitSeq(r, func(b []byte) { fill(b, 10) })
		def := TaskDef{Name: "inc", Device: dev,
			Deps: []task.Dep{inDep(r), outDep(r)},
			Work: incWork{r: r, delta: 5, cost: time.Millisecond}}
		scores = append([]uint64(nil), rt.master().affinityScore(&task.Task{Device: task.SMP, Deps: def.Deps, CopyDeps: true})...)
		mc.Submit(def)
		mc.TaskWait()
		result = append([]byte(nil), mc.HostBytes(r)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range result {
		if b != 15 {
			t.Fatalf("byte %d = %d, want 15", i, b)
		}
	}
	// The host holds all 1024 bytes; one InOut clause weighs them double.
	if scores[0] != 2*1024 {
		t.Fatalf("host affinity score = %d, want %d (region counted once, as InOut)", scores[0], 2*1024)
	}
	return stats
}

func TestDuplicateCopyClausesOnGPUTask(t *testing.T) {
	if stats := runDuplicateCopyClauses(t, task.CUDA); stats.TasksCUDA != 1 {
		t.Fatalf("TasksCUDA = %d, want 1", stats.TasksCUDA)
	}
}

func TestDuplicateCopyClausesOnSMPTask(t *testing.T) {
	if stats := runDuplicateCopyClauses(t, task.SMP); stats.TasksSMP != 1 {
		t.Fatalf("TasksSMP = %d, want 1", stats.TasksSMP)
	}
}

func TestDependencyChainComputesCorrectly(t *testing.T) {
	rt := New(baseCfg(1, 2))
	var got byte
	_, err := rt.Run(func(mc *MainCtx) {
		a := mc.Alloc(256)
		b := mc.Alloc(256)
		c := mc.Alloc(256)
		mc.InitSeq(a, func(buf []byte) { fill(buf, 3) })
		mc.InitSeq(b, func(buf []byte) { fill(buf, 4) })
		// a += 1 ; b += 2 ; c = a + b  => c = 4 + 6 = 10
		mc.Submit(TaskDef{Name: "incA", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(a)}, Work: incWork{r: a, delta: 1, cost: time.Millisecond}})
		mc.Submit(TaskDef{Name: "incB", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(b)}, Work: incWork{r: b, delta: 2, cost: time.Millisecond}})
		mc.Submit(TaskDef{Name: "sum", Device: task.CUDA,
			Deps: []task.Dep{inDep(a), inDep(b), outDep(c)},
			Work: sumWork{a: a, b: b, c: c, cost: time.Millisecond}})
		mc.TaskWait()
		got = mc.HostBytes(c)[100]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("c = %d, want 10", got)
	}
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func TestWriteBackAvoidsRetransfers(t *testing.T) {
	run := func(policy coherence.Policy) Stats {
		cfg := baseCfg(1, 1)
		cfg.CachePolicy = policy
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			r := mc.Alloc(1 << 20)
			mc.InitSeq(r, nil)
			for i := 0; i < 10; i++ {
				mc.Submit(TaskDef{Name: fmt.Sprintf("inc%d", i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
			}
			mc.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	wb := run(coherence.WriteBack)
	wt := run(coherence.WriteThrough)
	nc := run(coherence.NoCache)
	// Write-back: one H2D; the only D2H is the implicit end-of-program
	// flush (our explicit wait used noflush).
	if wb.XfersH2D != 1 || wb.XfersD2H != 1 {
		t.Fatalf("wb transfers = %d/%d, want 1/1", wb.XfersH2D, wb.XfersD2H)
	}
	// Write-through: one H2D (cached input), a D2H per task.
	if wt.XfersH2D != 1 || wt.XfersD2H != 10 {
		t.Fatalf("wt transfers = %d/%d, want 1/10", wt.XfersH2D, wt.XfersD2H)
	}
	// No-cache: in and out every task.
	if nc.XfersH2D != 10 || nc.XfersD2H != 10 {
		t.Fatalf("nc transfers = %d/%d, want 10/10", nc.XfersH2D, nc.XfersD2H)
	}
	if !(wb.ElapsedSeconds < wt.ElapsedSeconds && wt.ElapsedSeconds < nc.ElapsedSeconds) {
		t.Fatalf("elapsed ordering wrong: wb=%v wt=%v nc=%v", wb.ElapsedSeconds, wt.ElapsedSeconds, nc.ElapsedSeconds)
	}
}

func TestTaskWaitFlushesDirtyGPUData(t *testing.T) {
	rt := New(baseCfg(1, 1))
	var flushed byte
	stats, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(512)
		mc.InitSeq(r, func(b []byte) { fill(b, 1) })
		mc.Submit(TaskDef{Name: "inc", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(r)}, Work: incWork{r: r, delta: 9, cost: time.Millisecond}})
		mc.TaskWait() // must flush the write-back dirty line
		flushed = mc.HostBytes(r)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if flushed != 10 {
		t.Fatalf("host byte = %d, want 10 (flush missing)", flushed)
	}
	if stats.XfersD2H != 1 {
		t.Fatalf("D2H = %d, want exactly 1 (flush)", stats.XfersD2H)
	}
}

func TestSMPTaskSeesGPUOutput(t *testing.T) {
	rt := New(baseCfg(1, 1))
	var got byte
	_, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(128)
		mc.InitSeq(r, func(b []byte) { fill(b, 1) })
		mc.Submit(TaskDef{Name: "gpu-inc", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(r)}, Work: incWork{r: r, delta: 2, cost: time.Millisecond}})
		// The SMP task depends on the GPU task; coherence must flush the
		// GPU's dirty copy to the host before it runs.
		mc.Submit(TaskDef{Name: "cpu-inc", Device: task.SMP,
			Deps: []task.Dep{inoutDep(r)}, Work: incWork{r: r, delta: 4, cost: time.Microsecond}})
		mc.TaskWait()
		got = mc.HostBytes(r)[7]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("byte = %d, want 7 (1+2+4)", got)
	}
}

func TestIndependentTasksUseBothGPUs(t *testing.T) {
	cfg := baseCfg(1, 2)
	rt := New(cfg)
	stats, err := rt.Run(func(mc *MainCtx) {
		for i := 0; i < 8; i++ {
			r := mc.Alloc(1 << 16)
			mc.InitSeq(r, nil)
			mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)}, Work: incWork{r: r, delta: 1, cost: 10 * time.Millisecond}})
		}
		mc.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 x 10ms tasks on 2 GPUs: elapsed must be close to 40ms, well below
	// the 80ms serial time.
	if stats.ElapsedSeconds > 0.06 {
		t.Fatalf("elapsed = %v, tasks not parallelized across GPUs", stats.ElapsedSeconds)
	}
	if stats.TasksCUDA != 8 {
		t.Fatalf("tasks = %d", stats.TasksCUDA)
	}
}

func TestRemoteExecutionOnCluster(t *testing.T) {
	cfg := baseCfg(4, 1)
	cfg.Scheduler = sched.BreadthFirst
	rt := New(cfg)
	var results [4]byte
	stats, err := rt.Run(func(mc *MainCtx) {
		var regs [4]memspace.Region
		for i := range regs {
			regs[i] = mc.Alloc(1 << 18)
			mc.InitSeq(regs[i], func(b []byte) { fill(b, byte(i)) })
		}
		for i, r := range regs {
			mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: r, delta: 100, cost: 20 * time.Millisecond}})
		}
		mc.TaskWait()
		for i, r := range regs {
			results[i] = mc.HostBytes(r)[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range results {
		if b != byte(i)+100 {
			t.Fatalf("region %d = %d, want %d", i, b, byte(i)+100)
		}
	}
	if stats.TasksRemote == 0 {
		t.Fatal("no tasks ran remotely on a 4-node cluster")
	}
	if stats.NetBytes == 0 {
		t.Fatal("no network traffic recorded")
	}
	// 4 x 20ms independent tasks across 4 nodes should beat 80ms serial.
	if stats.ElapsedSeconds > 0.07 {
		t.Fatalf("elapsed = %v, no cluster parallelism", stats.ElapsedSeconds)
	}
}

func TestSlaveToSlaveVersusMasterRouted(t *testing.T) {
	run := func(stos bool) Stats {
		cfg := baseCfg(3, 1)
		cfg.Scheduler = sched.Affinity
		cfg.SlaveToSlave = stos
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			const n = 6
			var regs [n]memspace.Region
			// Round 1: independent producer tasks spread across the three
			// nodes (fresh output regions have no affinity, so the
			// round-robin communication thread distributes them), leaving
			// each region resident where it ran.
			for i := range regs {
				regs[i] = mc.Alloc(1 << 20)
				mc.Submit(TaskDef{Name: fmt.Sprintf("spread%d", i), Device: task.CUDA,
					Deps: []task.Dep{outDep(regs[i])},
					Work: setWork{r: regs[i], v: 1, cost: 20 * time.Millisecond}})
			}
			mc.TaskWaitNoflush()
			// Round 2: independent pairs (no WAR chains) — each task also
			// reads its pair's region; the affinity scheduler runs it where
			// its written region lives, so the read region must cross
			// between slaves.
			for i := 0; i < n; i += 2 {
				mc.Submit(TaskDef{Name: fmt.Sprintf("mix%d", i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(regs[i]), inDep(regs[i+1])},
					Work: sumWork{a: regs[i], b: regs[i+1], c: regs[i], cost: 5 * time.Millisecond}})
			}
			mc.TaskWait()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	stos := run(true)
	mtos := run(false)
	if stos.TasksRemote == 0 {
		t.Fatalf("no remote tasks: %+v", stos)
	}
	if stos.BytesStoS == 0 {
		t.Fatalf("StoS run moved no slave-to-slave bytes: %+v", stos)
	}
	if mtos.BytesStoS != 0 {
		t.Fatalf("MtoS run recorded StoS bytes: %+v", mtos)
	}
	if mtos.BytesMtoS <= stos.BytesMtoS {
		t.Fatalf("master-routed bytes should dominate: mtos=%d stos=%d", mtos.BytesMtoS, stos.BytesMtoS)
	}
}

func TestPresendOverlapsTransfersWithRemoteCompute(t *testing.T) {
	run := func(presend int) Stats {
		// The master has no GPU: every CUDA task must run on the single
		// slave, so presend's transfer/compute overlap is isolated.
		cluster := testCluster(2, 1, 1<<26)
		cluster.Nodes[0].GPUs = nil
		cfg := baseCfg(2, 1)
		cfg.Cluster = cluster
		cfg.Scheduler = sched.BreadthFirst
		cfg.Presend = presend
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			for i := 0; i < 12; i++ {
				r := mc.Alloc(4 << 20) // 4 MB -> ~4ms on the wire
				mc.InitSeq(r, nil)
				mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 1, cost: 5 * time.Millisecond}})
			}
			mc.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	none, two := run(0), run(2)
	if none.Presends != 0 {
		t.Fatalf("presend=0 recorded %d presends", none.Presends)
	}
	if two.Presends == 0 {
		t.Fatal("presend=2 recorded no presends")
	}
	// Without presend each remote task serializes wire + PCIe + kernel;
	// with presend the staging of the next tasks overlaps computation.
	if two.ElapsedSeconds >= none.ElapsedSeconds*0.85 {
		t.Fatalf("presend gave no overlap win: %v vs %v", two.ElapsedSeconds, none.ElapsedSeconds)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, uint64) {
		cfg := baseCfg(2, 2)
		cfg.Scheduler = sched.Affinity
		rt := New(cfg)
		var sum uint64
		stats, err := rt.Run(func(mc *MainCtx) {
			var regs []memspace.Region
			for i := 0; i < 6; i++ {
				r := mc.Alloc(4096)
				mc.InitSeq(r, func(b []byte) { fill(b, byte(i)) })
				regs = append(regs, r)
			}
			for round := 0; round < 3; round++ {
				for i, r := range regs {
					mc.Submit(TaskDef{Name: fmt.Sprintf("r%dt%d", round, i), Device: task.CUDA,
						Deps: []task.Dep{inoutDep(r)},
						Work: incWork{r: r, delta: 1, cost: time.Duration(i+1) * time.Millisecond}})
				}
			}
			mc.TaskWait()
			for _, r := range regs {
				b := mc.HostBytes(r)
				sum += uint64(binary.LittleEndian.Uint32(b[:4]))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, sum
	}
	s1, sum1 := run()
	s2, sum2 := run()
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Fatalf("stats diverged:\n%+v\nvs\n%+v", s1, s2)
	}
	perNode := 0
	for _, n := range s1.TasksPerNode {
		perNode += n
	}
	if perNode != s1.TasksSMP+s1.TasksCUDA || perNode == 0 {
		t.Fatalf("TasksPerNode %v sums to %d, TasksSMP+TasksCUDA = %d", s1.TasksPerNode, perNode, s1.TasksSMP+s1.TasksCUDA)
	}
	if sum1 != sum2 {
		t.Fatalf("results diverged: %d vs %d", sum1, sum2)
	}
}

func TestTaskWaitOn(t *testing.T) {
	rt := New(baseCfg(1, 1))
	_, err := rt.Run(func(mc *MainCtx) {
		a := mc.Alloc(128)
		b := mc.Alloc(128)
		mc.InitSeq(a, func(buf []byte) { fill(buf, 1) })
		mc.InitSeq(b, func(buf []byte) { fill(buf, 1) })
		mc.Submit(TaskDef{Name: "fast", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(a)}, Work: incWork{r: a, delta: 1, cost: time.Millisecond}})
		mc.Submit(TaskDef{Name: "slow", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(b)}, Work: incWork{r: b, delta: 1, cost: 50 * time.Millisecond}})
		before := mc.Now()
		mc.TaskWaitOn(a)
		waited := mc.Now() - before
		if got := mc.HostBytes(a)[0]; got != 2 {
			t.Errorf("a = %d after TaskWaitOn, want 2", got)
		}
		// Must not have waited for the slow task.
		if waited.Seconds() > 0.04 {
			t.Errorf("TaskWaitOn(a) waited %v, appears to block on unrelated task", waited)
		}
		mc.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAffinityReducesTrafficVersusBF(t *testing.T) {
	run := func(policy sched.Policy) Stats {
		cfg := baseCfg(1, 4)
		cfg.Scheduler = policy
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			// 8 independent chains; locality-aware scheduling keeps each
			// chain on the GPU holding its data.
			var regs []memspace.Region
			for i := 0; i < 8; i++ {
				r := mc.Alloc(1 << 22) // 4 MB
				mc.InitSeq(r, nil)
				regs = append(regs, r)
			}
			for round := 0; round < 6; round++ {
				for i, r := range regs {
					// Skewed costs so chain completions interleave and a
					// FIFO scheduler scrambles chain-to-GPU assignment.
					cost := time.Duration(1+(i*7+round*3)%5) * time.Millisecond
					mc.Submit(TaskDef{Name: fmt.Sprintf("c%dr%d", i, round), Device: task.CUDA,
						Deps: []task.Dep{inoutDep(r)},
						Work: incWork{r: r, delta: 1, cost: cost}})
				}
			}
			mc.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	aff := run(sched.Affinity)
	bf := run(sched.BreadthFirst)
	if aff.BytesH2D >= bf.BytesH2D {
		t.Fatalf("affinity H2D %d not below breadth-first %d", aff.BytesH2D, bf.BytesH2D)
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	cfg := baseCfg(2, 1)
	rec := trace.New()
	cfg.Trace = rec
	rt := New(cfg)
	stats, err := rt.Run(func(mc *MainCtx) {
		for i := 0; i < 4; i++ {
			r := mc.Alloc(1 << 18)
			mc.InitSeq(r, nil)
			mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: r, delta: 1, cost: 5 * time.Millisecond}})
		}
		mc.Submit(TaskDef{Name: "cpu", Device: task.SMP,
			Deps: []task.Dep{}, Work: incWork{r: memspace.Region{}, cost: time.Millisecond}})
		mc.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	var taskRuns, h2d, net int
	for _, s := range rec.Spans() {
		if s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		switch s.Kind {
		case trace.TaskRun:
			taskRuns++
		case trace.XferH2D:
			h2d++
		case trace.NetSend:
			net++
		}
	}
	if taskRuns != stats.TasksCUDA+stats.TasksSMP {
		t.Fatalf("task spans %d != executed tasks %d", taskRuns, stats.TasksCUDA+stats.TasksSMP)
	}
	if h2d != stats.XfersH2D {
		t.Fatalf("h2d spans %d != stat %d", h2d, stats.XfersH2D)
	}
	if stats.TasksRemote > 0 && net == 0 {
		t.Fatal("remote tasks ran but no net spans recorded")
	}
	if taskRuns == 0 {
		t.Fatal("no task spans")
	}
	var sb strings.Builder
	if err := rec.Gantt(&sb, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "#") {
		t.Fatalf("gantt has no execution marks:\n%s", sb.String())
	}
}

// tracedFixtureRun executes a small cluster workload with a trace
// recorder attached, returning the stats and the recorder.
func tracedFixtureRun(t *testing.T) (Stats, *trace.Recorder) {
	t.Helper()
	cfg := baseCfg(2, 1)
	cfg.Prefetch = true
	rec := trace.New()
	cfg.Trace = rec
	rt := New(cfg)
	stats, err := rt.Run(func(mc *MainCtx) {
		var regs []memspace.Region
		for i := 0; i < 4; i++ {
			r := mc.Alloc(1 << 16)
			mc.InitSeq(r, nil)
			regs = append(regs, r)
		}
		for round := 0; round < 2; round++ {
			for i, r := range regs {
				mc.Submit(TaskDef{Name: fmt.Sprintf("g%d_%d", round, i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 1, cost: time.Duration(i+1) * time.Millisecond}})
			}
		}
		mc.Submit(TaskDef{Name: "cpu", Device: task.SMP,
			Deps: []task.Dep{inoutDep(regs[0])},
			Work: incWork{r: regs[0], delta: 1, cost: time.Millisecond}})
		mc.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, rec
}

func TestMetricsAgreeWithStats(t *testing.T) {
	stats, rec := tracedFixtureRun(t)
	// Recount from the trace, a second record of the same run: every task
	// body is one TaskRun span on its node (Dev -1 for SMP), and every
	// host-to-device copy is one XferH2D span.
	perNode := make([]int, len(stats.TasksPerNode))
	var smp, cuda, h2d int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.TaskRun:
			perNode[s.Node]++
			if s.Dev < 0 {
				smp++
			} else {
				cuda++
			}
		case trace.XferH2D:
			h2d++
		}
	}
	if smp != stats.TasksSMP || cuda != stats.TasksCUDA {
		t.Fatalf("trace saw %d SMP / %d CUDA task runs, Stats says %d / %d",
			smp, cuda, stats.TasksSMP, stats.TasksCUDA)
	}
	if fmt.Sprint(perNode) != fmt.Sprint(stats.TasksPerNode) {
		t.Fatalf("trace per-node task runs %v, Stats says %v", perNode, stats.TasksPerNode)
	}
	if h2d != stats.XfersH2D || h2d == 0 {
		t.Fatalf("trace saw %d H2D copies, Stats says %d", h2d, stats.XfersH2D)
	}
	if stats.CacheMisses == 0 || stats.CacheHits+stats.CacheMisses < stats.TasksCUDA {
		t.Fatalf("cache saw %d hits / %d misses for %d GPU tasks",
			stats.CacheHits, stats.CacheMisses, stats.TasksCUDA)
	}
}

func TestTraceEdgesAndCriticalPathFromRun(t *testing.T) {
	stats, rec := tracedFixtureRun(t)
	if len(rec.Edges()) == 0 {
		t.Fatal("no dependence arcs mirrored into the trace")
	}
	rep := rec.CriticalPath(5)
	if rep.Tasks != stats.TasksSMP+stats.TasksCUDA {
		t.Fatalf("critical path analyzed %d tasks, %d ran", rep.Tasks, stats.TasksSMP+stats.TasksCUDA)
	}
	if len(rep.Chain) < 2 {
		t.Fatalf("chain too short: %+v", rep.Chain)
	}
	// Each region's 2 rounds + the cpu task form dependent chains; the
	// makespan must be fully decomposed.
	total := rep.Compute + rep.Transfer + rep.Idle
	if total != time.Duration(rep.Makespan) {
		t.Fatalf("compute+transfer+idle %v != makespan %v", total, time.Duration(rep.Makespan))
	}
	var a, b bytes.Buffer
	if err := rec.WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("perfetto re-export differs")
	}
}

func TestMultipleCommThreads(t *testing.T) {
	run := func(threads int) Stats {
		cfg := baseCfg(5, 1)
		cfg.Scheduler = sched.BreadthFirst
		cfg.CommThreads = threads
		cfg.Presend = 1
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			for i := 0; i < 20; i++ {
				r := mc.Alloc(1 << 20)
				mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
					Deps: []task.Dep{outDep(r)},
					Work: setWork{r: r, v: 1, cost: 8 * time.Millisecond}})
			}
			mc.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	one := run(1)
	three := run(3)
	// Same total work either way, and every node participates.
	if one.TasksCUDA != 20 || three.TasksCUDA != 20 {
		t.Fatalf("tasks = %d / %d", one.TasksCUDA, three.TasksCUDA)
	}
	for i, c := range three.TasksPerNode {
		if c == 0 {
			t.Fatalf("node %d starved with 3 comm threads: %v", i, three.TasksPerNode)
		}
	}
	// With several threads the dispatch control path is not slower.
	if three.ElapsedSeconds > one.ElapsedSeconds*1.2 {
		t.Fatalf("3 comm threads slower: %v vs %v", three.ElapsedSeconds, one.ElapsedSeconds)
	}
}

func TestOverlapPlusPrefetchHidesTransfers(t *testing.T) {
	// The paper: prefetch "is more effective when combined with the
	// overlapping of data transfers and computation".
	run := func(overlap, prefetch bool) float64 {
		cfg := baseCfg(1, 1)
		cfg.Validate = false
		cfg.Overlap = overlap
		cfg.Prefetch = prefetch
		rt := New(cfg)
		var elapsed float64
		_, err := rt.Run(func(mc *MainCtx) {
			start := mc.Now()
			for i := 0; i < 16; i++ {
				r := mc.Alloc(8 << 20) // 8 MB: ~1.6ms PCIe
				mc.InitSeq(r, nil)
				mc.Submit(TaskDef{Name: fmt.Sprintf("t%d", i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 1, cost: 2 * time.Millisecond}})
			}
			mc.TaskWaitNoflush()
			elapsed = (mc.Now() - start).Seconds()
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	plain := run(false, false)
	both := run(true, true)
	// The win is bounded by eviction writebacks sharing the wire in this
	// tight configuration; it must exist (the full-size ablation benchmark
	// shows the larger effect).
	if both >= plain*0.93 {
		t.Fatalf("overlap+prefetch gave no win: %v vs %v", both, plain)
	}
}

func TestBlockingCacheSerializesInputTransfers(t *testing.T) {
	run := func(nonblocking bool) float64 {
		cfg := baseCfg(1, 1)
		cfg.Validate = false
		cfg.NonBlockingCache = nonblocking
		cfg.Overlap = true // independent DMA engines let concurrent fetches pipeline
		rt := New(cfg)
		stats, err := rt.Run(func(mc *MainCtx) {
			// One task with many inputs: the non-blocking cache issues the
			// fetches concurrently.
			var deps []task.Dep
			for i := 0; i < 8; i++ {
				r := mc.Alloc(4 << 20)
				mc.InitSeq(r, nil)
				deps = append(deps, inDep(r))
			}
			out := mc.Alloc(1 << 10)
			deps = append(deps, outDep(out))
			mc.Submit(TaskDef{Name: "many-in", Device: task.CUDA, Deps: deps,
				Work: task.FixedWork{Label: "k", GPUTime: time.Millisecond}})
			mc.TaskWaitNoflush()
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.ElapsedSeconds
	}
	blocking := run(false)
	nonblocking := run(true)
	// With one H2D engine the wire time is the same; the win is bounded
	// but real (staging latencies overlap). At minimum it must not lose.
	if nonblocking > blocking {
		t.Fatalf("non-blocking cache slower: %v vs %v", nonblocking, blocking)
	}
}

func TestNestedTasksOnSlaveNodes(t *testing.T) {
	// One parent task per node decomposes its region into nested subtasks
	// executed locally — the paper's scalable data decomposition.
	cfg := baseCfg(3, 1)
	cfg.Scheduler = sched.BreadthFirst
	rt := New(cfg)
	const parts = 4
	var regions [3][parts]memspace.Region
	stats, err := rt.Run(func(mc *MainCtx) {
		for nodeish := 0; nodeish < 3; nodeish++ {
			nodeish := nodeish
			var deps []task.Dep
			for j := 0; j < parts; j++ {
				regions[nodeish][j] = mc.Alloc(4096)
				deps = append(deps, outDep(regions[nodeish][j]))
			}
			mc.Submit(TaskDef{
				Name: fmt.Sprintf("parent%d", nodeish), Device: task.SMP,
				Deps: deps,
				Work: task.FixedWork{Label: "parent", CPUTime: time.Millisecond},
				Spawner: func(lcI interface{}) {
					lc := lcI.(*LocalCtx)
					for j := 0; j < parts; j++ {
						r := regions[nodeish][j]
						lc.Submit(TaskDef{
							Name: fmt.Sprintf("child%d.%d", nodeish, j), Device: task.CUDA,
							Deps: []task.Dep{outDep(r)},
							Work: setWork{r: r, v: byte(nodeish + 1), cost: 2 * time.Millisecond},
						})
					}
					lc.Wait()
				},
			})
		}
		mc.TaskWait()
		for nodeish := 0; nodeish < 3; nodeish++ {
			for j := 0; j < parts; j++ {
				b := mc.HostBytes(regions[nodeish][j])
				if b[0] != byte(nodeish+1) {
					t.Errorf("region %d.%d = %d, want %d", nodeish, j, b[0], nodeish+1)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Children execute where the parent ran: CUDA task count is parents'
	// children only, and at least one parent ran remotely.
	if stats.TasksCUDA != 3*parts {
		t.Fatalf("TasksCUDA = %d, want %d", stats.TasksCUDA, 3*parts)
	}
	if stats.TasksRemote == 0 {
		t.Fatal("no parent ran remotely")
	}
}

func TestNestedTasksRespectLocalDependences(t *testing.T) {
	cfg := baseCfg(1, 1)
	rt := New(cfg)
	var r memspace.Region
	_, err := rt.Run(func(mc *MainCtx) {
		r = mc.Alloc(64)
		mc.Submit(TaskDef{
			Name: "parent", Device: task.SMP,
			Deps: []task.Dep{outDep(r)},
			Work: task.NoWork{},
			Spawner: func(lcI interface{}) {
				lc := lcI.(*LocalCtx)
				// A chain: set, then add; order matters.
				lc.Submit(TaskDef{Name: "set", Device: task.CUDA,
					Deps: []task.Dep{outDep(r)},
					Work: setWork{r: r, v: 3, cost: time.Millisecond}})
				lc.Submit(TaskDef{Name: "add", Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 4, cost: time.Millisecond}})
				lc.Wait()
			},
		})
		mc.TaskWait()
		if got := mc.HostBytes(r)[0]; got != 7 {
			t.Errorf("r = %d, want 7", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGPUParentSpawnerDoesNotDeadlockSingleGPU(t *testing.T) {
	cfg := baseCfg(1, 1) // one GPU: parent and children share the manager
	rt := New(cfg)
	_, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(64)
		mc.Submit(TaskDef{
			Name: "gpu-parent", Device: task.CUDA,
			Deps: []task.Dep{outDep(r)},
			Work: setWork{r: r, v: 1, cost: time.Millisecond},
			Spawner: func(lcI interface{}) {
				lc := lcI.(*LocalCtx)
				lc.Submit(TaskDef{Name: "gpu-child", Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 2, cost: time.Millisecond}})
				lc.Wait()
			},
		})
		mc.TaskWait()
		if got := mc.HostBytes(r)[0]; got != 3 {
			t.Errorf("r = %d, want 3", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	mustPanicCore(t, func() { New(Config{}) })                                               // no nodes
	mustPanicCore(t, func() { New(Config{Cluster: testCluster(1, 1, 1<<20), Presend: -1}) }) // negative presend
}

func mustPanicCore(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestCUDATaskWithoutGPUsPanicsAtSubmit(t *testing.T) {
	cluster := testCluster(1, 1, 1<<20)
	cluster.Nodes[0].GPUs = nil
	rt := New(Config{Cluster: cluster})
	panicked := false
	_, _ = rt.Run(func(mc *MainCtx) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		mc.Submit(TaskDef{Name: "gpu", Device: task.CUDA, Work: task.NoWork{}})
	})
	if !panicked {
		t.Fatal("expected panic for CUDA task on GPU-less machine")
	}
}

func TestWriteThroughOnCluster(t *testing.T) {
	// Write-through on a cluster: every remote GPU write is propagated to
	// the slave host, so the master can pull without a D2H on the fetch
	// path; results stay correct.
	cfg := baseCfg(2, 1)
	cfg.CachePolicy = coherence.WriteThrough
	rt := New(cfg)
	var got byte
	_, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(512)
		mc.Submit(TaskDef{Name: "produce", Device: task.CUDA,
			Deps: []task.Dep{outDep(r)},
			Work: setWork{r: r, v: 9, cost: 20 * time.Millisecond}})
		mc.TaskWait()
		got = mc.HostBytes(r)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("byte = %d, want 9", got)
	}
}

func TestMtoSRoutingWhenStoSDisabled(t *testing.T) {
	// A region produced on slave 1 and needed on slave 2 must route via
	// the master when SlaveToSlave is off, updating both counters and the
	// master's own copy.
	cfg := baseCfg(3, 1)
	cfg.Scheduler = sched.Affinity
	cfg.SlaveToSlave = false
	rt := New(cfg)
	var got byte
	stats, err := rt.Run(func(mc *MainCtx) {
		a := mc.Alloc(1 << 20)
		b := mc.Alloc(1 << 20)
		// Producers spread over the slaves.
		mc.Submit(TaskDef{Name: "prodA", Device: task.CUDA,
			Deps: []task.Dep{outDep(a)}, Work: setWork{r: a, v: 3, cost: 10 * time.Millisecond}})
		mc.Submit(TaskDef{Name: "prodB", Device: task.CUDA,
			Deps: []task.Dep{outDep(b)}, Work: setWork{r: b, v: 4, cost: 10 * time.Millisecond}})
		mc.TaskWaitNoflush()
		// A consumer reading both: wherever it runs, one region crosses.
		mc.Submit(TaskDef{Name: "mix", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(a), inDep(b)},
			Work: sumWork{a: a, b: b, c: a, cost: 5 * time.Millisecond}})
		mc.TaskWait()
		got = mc.HostBytes(a)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("a = %d, want 7 (3 + 4)", got)
	}
	if stats.BytesStoS != 0 {
		t.Fatalf("StoS bytes %d with SlaveToSlave disabled", stats.BytesStoS)
	}
}

func TestOversizedWorkingSetReturnsError(t *testing.T) {
	cfg := baseCfg(1, 1) // 64 MB test GPU
	rt := New(cfg)
	var small memspace.Region
	_, err := rt.Run(func(mc *MainCtx) {
		small = mc.Alloc(1 << 10)
		r := mc.Alloc(1 << 28) // 256 MB: cannot fit the 64 MB device
		mc.InitSeq(small, nil)
		mc.InitSeq(r, nil)
		mc.Submit(TaskDef{Name: "huge", Device: task.CUDA,
			Deps: []task.Dep{inDep(small), inoutDep(r)},
			Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
		mc.TaskWaitNoflush()
	})
	var pp *sim.ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("err = %v, want ProcPanicError about the working set", err)
	}
	if !strings.Contains(fmt.Sprint(pp.Value), "does not fit") {
		t.Fatalf("panic value = %v", pp.Value)
	}
	// The failed staging gave back the pin it had taken on the small region:
	// the whole cache can still be reclaimed.
	capacity := uint64(float64(rt.cfg.Cluster.Nodes[0].GPUs[0].MemBytes) * (1 - rt.cfg.GPUCacheHeadroom))
	if c := rt.nodes[0].caches[0]; !c.Contains(small) {
		t.Fatal("the small region's line is not resident")
	} else if _, ok := c.MakeSpace(capacity); !ok {
		t.Fatal("a pin outlived the staging that failed")
	}
}

// badWork is a kernel whose body panics when it really runs.
type badWork struct{ incWork }

func (badWork) Run(*memspace.Store) { panic("kernel bug") }

// A user kernel that panics in Validate mode runs as a bare event, on
// whichever goroutine is dispatching; Run must still return the panic as an
// error — on one node and with the task dispatched to a slave — not hang
// with the runtime's looping processes parked forever. A body that breaks
// its dependence contract panics the same way, and errors.As reaches the
// typed ContractError through the ProcPanicError: from an SMP worker on one
// node, and from a kernel's completion callback on two.
func TestPanickingKernelReturnsError(t *testing.T) {
	run := func(nodes int, submit func(mc *MainCtx, r, other memspace.Region)) error {
		rt := New(baseCfg(nodes, 1))
		finished := make(chan error, 1)
		go func() {
			_, err := rt.Run(func(mc *MainCtx) {
				r, other := mc.Alloc(1024), mc.Alloc(1024)
				mc.InitSeq(r, nil)
				mc.InitSeq(other, nil)
				submit(mc, r, other)
				mc.TaskWait()
			})
			finished <- err
		}()
		select {
		case err := <-finished:
			return err
		case <-time.After(30 * time.Second):
			t.Fatalf("%d nodes: Run did not return", nodes)
			return nil
		}
	}
	contractDevice := map[int]task.Device{1: task.SMP, 2: task.CUDA}
	for _, nodes := range []int{1, 2} {
		err := run(nodes, func(mc *MainCtx, r, _ memspace.Region) {
			mc.Submit(TaskDef{Name: "bad", Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)},
				Work: badWork{incWork{r: r, delta: 1, cost: time.Millisecond}}})
		})
		var pp *sim.ProcPanicError
		if !errors.As(err, &pp) || pp.Value != "kernel bug" {
			t.Fatalf("%d nodes: err = %v, want ProcPanicError(kernel bug)", nodes, err)
		}

		// The body increments other, which no clause declares.
		err = run(nodes, func(mc *MainCtx, r, other memspace.Region) {
			mc.Submit(TaskDef{Name: "stray", Device: contractDevice[nodes],
				Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: other, delta: 1, cost: time.Millisecond}})
		})
		var ce *memspace.ContractError
		if !errors.As(err, &ce) || ce.Kind != memspace.UndeclaredAccess || ce.Region.Size != 1024 {
			t.Fatalf("%d nodes, %v body: err = %v, want ContractError(undeclared access)", nodes, contractDevice[nodes], err)
		}
	}
}

func TestReductionInCorePackage(t *testing.T) {
	// Exercises the reduction machinery (staging, partials, combine)
	// directly at the core level.
	cfg := baseCfg(1, 2)
	rt := New(cfg)
	var got byte
	_, err := rt.Run(func(mc *MainCtx) {
		acc := mc.Alloc(64)
		mc.InitSeq(acc, func(b []byte) { fill(b, 1) })
		sum := func(a, p []byte) {
			for i := range a {
				a[i] += p[i]
			}
		}
		for i := 0; i < 4; i++ {
			mc.Submit(TaskDef{Name: fmt.Sprintf("red%d", i), Device: task.CUDA,
				Deps:       []task.Dep{{Region: acc, Access: task.Red}},
				Reductions: map[uint64]task.Combiner{acc.Addr: sum},
				Work:       incWork{r: acc, delta: 2, cost: time.Millisecond}})
		}
		mc.TaskWait()
		got = mc.HostBytes(acc)[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 { // 1 initial + 4 partials of 2
		t.Fatalf("acc = %d, want 9", got)
	}
}

// chainWorkload builds width independent chains of depth inc tasks each,
// submitted through submit (either Submit per def or one SubmitBatch), and
// returns the regions for validation.
func chainWorkload(mc *MainCtx, width, depth int, batch bool) []memspace.Region {
	regions := make([]memspace.Region, width)
	defs := make([]TaskDef, 0, width*depth)
	for i := range regions {
		regions[i] = mc.Alloc(256)
		mc.InitSeq(regions[i], func(b []byte) {
			for j := range b {
				b[j] = 0
			}
		})
	}
	for d := 0; d < depth; d++ {
		for i, r := range regions {
			def := TaskDef{
				Name:   fmt.Sprintf("inc%d_%d", i, d),
				Device: task.CUDA,
				Deps:   []task.Dep{{Region: r, Access: task.InOut}},
				Work:   incWork{r: r, delta: 1, cost: 20e3},
			}
			if batch {
				defs = append(defs, def)
			} else {
				mc.Submit(def)
			}
		}
	}
	if batch {
		mc.SubmitBatch(defs)
	}
	return regions
}

// TestSubmitBatchRuntimeEquivalent checks batch submission executes the
// same tasks to the same data as sequential submission.
func TestSubmitBatchRuntimeEquivalent(t *testing.T) {
	run := func(batch bool) (Stats, [][]byte) {
		cfg := baseCfg(1, 2)
		rt := New(cfg)
		var data [][]byte
		stats, err := rt.Run(func(mc *MainCtx) {
			regions := chainWorkload(mc, 6, 4, batch)
			mc.TaskWait()
			for _, r := range regions {
				data = append(data, append([]byte(nil), mc.HostBytes(r)...))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, data
	}
	ss, sd := run(false)
	bs, bd := run(true)
	if ss.TasksCUDA != bs.TasksCUDA {
		t.Fatalf("task counts differ: sequential %d, batch %d", ss.TasksCUDA, bs.TasksCUDA)
	}
	for i := range sd {
		for j := range sd[i] {
			if sd[i][j] != bd[i][j] {
				t.Fatalf("region %d byte %d: sequential %d, batch %d", i, j, sd[i][j], bd[i][j])
			}
		}
	}
}
