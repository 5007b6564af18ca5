package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// runPowerWorkload runs independent CUDA tasks on a 4-GPU node under the
// given cap, returning the stats, the final bytes of each region and the
// kernel launches the governor deferred.
func runPowerWorkload(t *testing.T, capWatts float64) (Stats, [][]byte, int) {
	t.Helper()
	cfg := baseCfg(1, 4)
	cfg.PowerCapWatts = capWatts
	rt := New(cfg)
	const tasks = 8
	var out [][]byte
	stats, err := rt.Run(func(mc *MainCtx) {
		var regions []memspace.Region
		for i := 0; i < tasks; i++ {
			i := i
			r := mc.Alloc(4096)
			mc.InitSeq(r, func(b []byte) {
				for j := range b {
					b[j] = byte(i)
				}
			})
			regions = append(regions, r)
			mc.Submit(TaskDef{
				Name: "inc", Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: r, delta: 7, cost: time.Millisecond},
			})
		}
		mc.TaskWait()
		for _, r := range regions {
			out = append(out, append([]byte(nil), mc.HostBytes(r)...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, out, stats.PowerThrottles
}

func TestPowerCapThrottlesWithoutChangingResults(t *testing.T) {
	// testCluster(1, 4): host idles at 100 W, each GPU at 30 W with a
	// 170 W busy delta. Idle baseline 220 W; one kernel 390 W; four
	// concurrent kernels 900 W.
	uncapped, wantBytes, throttles := runPowerWorkload(t, 0)
	if throttles != 0 {
		t.Fatalf("uncapped run throttled %d times", throttles)
	}
	if uncapped.PowerPeakWatts <= 400 {
		t.Fatalf("uncapped peak = %g W, want concurrent kernels above 400 W", uncapped.PowerPeakWatts)
	}
	if uncapped.EnergyJoules <= 220*uncapped.ElapsedSeconds {
		t.Fatalf("energy %g J does not exceed the idle baseline", uncapped.EnergyJoules)
	}

	// Cap at 400 W: exactly one kernel fits above the baseline.
	capped, gotBytes, throttles := runPowerWorkload(t, 400)
	if capped.PowerPeakWatts > 400 {
		t.Fatalf("capped run peaked at %g W above the 400 W cap", capped.PowerPeakWatts)
	}
	if throttles == 0 {
		t.Fatal("capped run recorded no throttles")
	}
	if capped.ElapsedSeconds <= uncapped.ElapsedSeconds {
		t.Fatalf("capped run (%gs) not slower than uncapped (%gs)", capped.ElapsedSeconds, uncapped.ElapsedSeconds)
	}
	// The governor only delays launches: every byte must be identical.
	for i := range wantBytes {
		if !bytes.Equal(wantBytes[i], gotBytes[i]) {
			t.Fatalf("region %d differs between capped and uncapped runs", i)
		}
	}
}

func TestPowerCapBelowFloorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an infeasible cap")
		}
	}()
	cfg := baseCfg(1, 1)
	cfg.PowerCapWatts = 50 // below idle + one kernel delta
	New(cfg)
}

// rooflineWork is compute-bound work whose modeled duration scales with
// the device's effective flops — fast on a GTX480, slower on a Tesla.
type rooflineWork struct {
	flops float64
}

func (w rooflineWork) Name() string { return "roofline" }
func (w rooflineWork) GPUCost(spec hw.GPUSpec) time.Duration {
	return spec.KernelLaunchOverhead + time.Duration(w.flops/spec.EffectiveFlops()*1e9)
}
func (w rooflineWork) CPUCost(spec hw.NodeSpec) time.Duration {
	return time.Duration(w.flops / spec.CPUFlops * 1e9)
}
func (w rooflineWork) Run(*memspace.Store) {}

// runMixed runs independent compute-heavy CUDA tasks on a mixed
// GTX480+Tesla cluster under the given policy. All input data starts on
// the master, which is what misleads the pure byte-affinity policy.
func runMixed(t *testing.T, policy sched.Policy) Stats {
	t.Helper()
	cfg := Config{
		Cluster:          hw.MixedGPUCluster(2, 2),
		Scheduler:        policy,
		SlaveToSlave:     true,
		NonBlockingCache: true,
	}
	rt := New(cfg)
	stats, err := rt.Run(func(mc *MainCtx) {
		for i := 0; i < 32; i++ {
			r := mc.Alloc(1 << 20)
			mc.InitSeq(r, nil)
			mc.Submit(TaskDef{
				Name: "roofline", Device: task.CUDA,
				Deps: []task.Dep{inoutDep(r)},
				Work: rooflineWork{flops: 4e9},
			})
		}
		mc.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestHEFTBeatsAffinityOnMixedCluster is the headline heterogeneity win:
// with every input resident on the master, byte affinity funnels all work
// to node 0 while HEFT's earliest-finish estimate weighs backlog and
// transfer cost and spreads the tasks across the mixed cluster.
func TestHEFTBeatsAffinityOnMixedCluster(t *testing.T) {
	aff := runMixed(t, sched.Affinity)
	heft := runMixed(t, sched.HEFT)
	if heft.ElapsedSeconds >= aff.ElapsedSeconds {
		t.Fatalf("heft (%gs) not faster than affinity (%gs) on the mixed cluster",
			heft.ElapsedSeconds, aff.ElapsedSeconds)
	}
	// HEFT must actually have used more than the master node.
	remote := 0
	for k := 1; k < len(heft.TasksPerNode); k++ {
		remote += heft.TasksPerNode[k]
	}
	if remote == 0 {
		t.Fatal("heft ran everything on the master")
	}
}
