package core

import (
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// runFaulted executes rounds of inout inc tasks over regions spread across
// the cluster and returns the stats plus the first byte of every region
// (each must equal rounds, whatever the injector did to the wire).
func runFaulted(t *testing.T, cfg Config, regions, rounds int, cost time.Duration) (Stats, []byte) {
	t.Helper()
	results := make([]byte, regions)
	stats, err := New(cfg).Run(func(mc *MainCtx) {
		regs := make([]memspace.Region, regions)
		for i := range regs {
			regs[i] = mc.Alloc(1 << 18)
			mc.InitSeq(regs[i], func(b []byte) { fill(b, 0) })
		}
		for round := 0; round < rounds; round++ {
			for i, r := range regs {
				mc.Submit(TaskDef{Name: fmt.Sprintf("r%dt%d", round, i), Device: task.CUDA,
					Deps: []task.Dep{inoutDep(r)},
					Work: incWork{r: r, delta: 1, cost: cost}})
			}
		}
		mc.TaskWait()
		for i, r := range regs {
			results[i] = mc.HostBytes(r)[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, results
}

func checkAll(t *testing.T, results []byte, want byte) {
	t.Helper()
	for i, b := range results {
		if b != want {
			t.Fatalf("region %d = %d, want %d", i, b, want)
		}
	}
}

func faultedCfg(nodes int, plan *faults.Plan) Config {
	cfg := baseCfg(nodes, 1)
	cfg.Scheduler = sched.BreadthFirst
	cfg.Faults = plan
	return cfg
}

func TestResilienceSurvivesMessageDrops(t *testing.T) {
	cfg := faultedCfg(4, &faults.Plan{Seed: 42, DropRate: 0.01})
	stats, results := runFaulted(t, cfg, 8, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	if stats.FaultDropsInjected == 0 {
		t.Fatal("drop plan injected nothing; raise traffic or rate")
	}
	if stats.NetRetries == 0 {
		t.Fatal("messages were dropped but nothing was retried")
	}
	if stats.DeadNodes != 0 {
		t.Fatalf("random drops killed %d nodes", stats.DeadNodes)
	}
}

func TestResilienceRecoversFromCrashedSlave(t *testing.T) {
	rec := trace.New()
	cfg := faultedCfg(8, &faults.Plan{
		Seed:    7,
		Crashes: []faults.Crash{{Node: 3, At: 30 * time.Millisecond}},
	})
	cfg.Trace = rec
	stats, results := runFaulted(t, cfg, 16, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	if stats.DeadNodes != 1 {
		t.Fatalf("DeadNodes = %d, want 1", stats.DeadNodes)
	}
	if stats.TasksReexecuted == 0 {
		t.Fatal("a mid-run crash re-executed no tasks")
	}
	if stats.RecoverySeconds <= 0 {
		t.Fatalf("RecoverySeconds = %v, want > 0", stats.RecoverySeconds)
	}
	var recovery, heartbeat int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.Recovery:
			recovery++
		case trace.Heartbeat:
			heartbeat++
		}
	}
	if recovery == 0 {
		t.Fatal("no Recovery spans in the trace")
	}
	if heartbeat == 0 {
		t.Fatal("no Heartbeat miss spans in the trace")
	}
}

// The first ack waits 20 wire latencies, and never less than 10us.
func TestAckTimeout(t *testing.T) {
	if got := ackTimeout(5 * time.Microsecond); got != 100*time.Microsecond {
		t.Fatalf("ackTimeout(5us) = %v, want 20x latency", got)
	}
	if got := ackTimeout(100 * time.Nanosecond); got != 10*time.Microsecond {
		t.Fatalf("ackTimeout(100ns) = %v, want the 10us floor", got)
	}
}

func TestResilienceStallBelowPatienceIsNotACrash(t *testing.T) {
	// Patience is missThreshold(5) x HeartbeatInterval(100us) = 500us; a
	// 300us stall must cause retries at most, never an exclusion.
	cfg := faultedCfg(4, &faults.Plan{
		Seed:   3,
		Stalls: []faults.Stall{{Node: 2, At: 10 * time.Millisecond, Duration: 300 * time.Microsecond}},
	})
	stats, results := runFaulted(t, cfg, 8, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	if stats.DeadNodes != 0 {
		t.Fatalf("transient stall excluded %d nodes", stats.DeadNodes)
	}
}

func TestResilienceStallPastPatienceExcludesNode(t *testing.T) {
	// A 2ms freeze blows through the 500us patience: the failure detector
	// must declare the node dead and the run must still finish correctly.
	cfg := faultedCfg(4, &faults.Plan{
		Seed:   3,
		Stalls: []faults.Stall{{Node: 2, At: 10 * time.Millisecond, Duration: 2 * time.Millisecond}},
	})
	stats, results := runFaulted(t, cfg, 8, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	if stats.DeadNodes != 1 {
		t.Fatalf("DeadNodes = %d, want 1 (stall outlived the detector's patience)", stats.DeadNodes)
	}
	if stats.HeartbeatMisses == 0 {
		t.Fatal("node was excluded without any recorded heartbeat miss")
	}
}

func TestResilienceSameSeedReplaysBitIdentically(t *testing.T) {
	run := func() (Stats, []byte) {
		cfg := faultedCfg(8, &faults.Plan{
			Seed:     99,
			DropRate: 0.005,
			Crashes:  []faults.Crash{{Node: 5, At: 25 * time.Millisecond}},
		})
		return runFaulted(t, cfg, 16, 3, 10*time.Millisecond)
	}
	s1, r1 := run()
	s2, r2 := run()
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Fatalf("stats diverged across identical fault plans:\n%+v\nvs\n%+v", s1, s2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("results diverged at region %d: %d vs %d", i, r1[i], r2[i])
		}
	}
}

// probeCounter passes the injector's verdicts on and counts the probes on
// the wire: the control datagrams of an AM header's size (an ack is
// smaller).
type probeCounter struct {
	netsim.Hook
	probes int
}

func (h *probeCounter) FilterSend(now sim.Time, m netsim.Message) netsim.Verdict {
	if m.Control && m.Size == 64 {
		h.probes++
	}
	return h.Hook.FilterSend(now, m)
}

// A plan arms the failure detector only when it can fail something: each
// single-fault plan starts a heartbeat loop that probes, and a quiet one
// spawns what the unarmed run spawns and sends no probe, whatever its
// heartbeat period.
func TestOnlyAFaultArmsTheDetector(t *testing.T) {
	for _, c := range []struct {
		name    string
		plan    faults.Plan
		detects bool
	}{
		{"quiet", faults.Plan{Seed: 1, LatencyMultiplier: 1, BandwidthMultiplier: 1, HeartbeatInterval: 20 * time.Microsecond}, false},
		{"drop", faults.Plan{Seed: 1, DropRate: 0.01}, true},
		{"degrade", faults.Plan{Seed: 1, BandwidthMultiplier: 0.5}, true},
		{"stall", faults.Plan{Seed: 1, Stalls: []faults.Stall{{Node: 2, At: time.Millisecond, Duration: 50 * time.Microsecond}}}, true},
		{"crash", faults.Plan{Seed: 1, Crashes: []faults.Crash{{Node: 3, At: 3 * time.Millisecond}}}, true},
	} {
		rt := newWeakscalePoint(1, &c.plan)
		h := &probeCounter{Hook: rt.ft.inj}
		rt.fabric.SetHook(h)
		runWeakscale(t, rt)
		if c.plan.Quiet() == c.detects {
			t.Errorf("%s: Quiet() = %v", c.name, c.plan.Quiet())
		}
		if (h.probes > 0) != c.detects {
			t.Errorf("%s: %d probes sent, want some = %v", c.name, h.probes, c.detects)
		}
		if spawned := rt.e.Spawned(); !c.detects && spawned != 29 {
			t.Errorf("%s: %d processes spawned, want the unarmed run's 29", c.name, spawned)
		}
	}
}

// Under a quiet plan nothing is logged to recover from, so a node convicted
// anyway fails the run with an error that names it.
func TestQuietPlanConvictionFailsRun(t *testing.T) {
	_, err := New(faultedCfg(4, &faults.Plan{Seed: 1})).Run(func(mc *MainCtx) { mc.rt.nodeDead(2, "runTask") })
	if lost, ok := err.(*nodeLostError); !ok || lost.node != 2 || lost.reason != "runTask" {
		t.Fatalf("Run = %v, want node 2's nodeLostError", err)
	}
}

func TestResilienceZeroFaultPlanOverheadBounded(t *testing.T) {
	// A zero plan arms acks and retries without injecting anything, and no
	// failure detector, since nothing can fail; a nil Faults disables the
	// subsystem entirely. The armed run must stay correct, kill nothing,
	// and cost only protocol overhead.
	nilCfg := faultedCfg(4, nil)
	nilStats, nilResults := runFaulted(t, nilCfg, 8, 3, 10*time.Millisecond)
	checkAll(t, nilResults, 3)
	if nilStats.NetRetries != 0 || nilStats.DeadNodes != 0 || nilStats.HeartbeatMisses != 0 ||
		nilStats.FaultDropsInjected != 0 || nilStats.TasksReexecuted != 0 {
		t.Fatalf("nil Faults left nonzero fault counters: %+v", nilStats)
	}

	armedCfg := faultedCfg(4, &faults.Plan{Seed: 1})
	armedStats, armedResults := runFaulted(t, armedCfg, 8, 3, 10*time.Millisecond)
	checkAll(t, armedResults, 3)
	if armedStats.DeadNodes != 0 || armedStats.FaultDropsInjected != 0 {
		t.Fatalf("zero-fault plan injected or killed something: %+v", armedStats)
	}
	if armedStats.ElapsedSeconds > nilStats.ElapsedSeconds*1.05 {
		t.Fatalf("armed zero-fault overhead too high: %v vs %v",
			armedStats.ElapsedSeconds, nilStats.ElapsedSeconds)
	}
}

func TestResilienceCrashRunLeaksNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	cfg := faultedCfg(8, &faults.Plan{
		Seed:    7,
		Crashes: []faults.Crash{{Node: 3, At: 30 * time.Millisecond}},
	})
	_, results := runFaulted(t, cfg, 16, 3, 10*time.Millisecond)
	checkAll(t, results, 3)
	// Engine goroutines wind down asynchronously after Run returns; give
	// them a moment before declaring a leak. The wait is an Eventually-
	// style bounded retry (the pattern detwallclock teaches) rather than
	// time.Now deadline arithmetic: the retry budget is explicit, and no
	// wall-clock reads leak into the condition being tested.
	settled := eventually(200, 10*time.Millisecond, func() bool {
		goruntime.GC()
		return goruntime.NumGoroutine() <= before
	})
	if !settled {
		buf := make([]byte, 1<<16)
		n := goruntime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, goruntime.NumGoroutine(), buf[:n])
	}
}

// eventually polls cond up to attempts times, pausing interval between
// tries, and reports whether cond ever held.
func eventually(attempts int, interval time.Duration, cond func() bool) bool {
	for i := 0; i < attempts; i++ {
		if cond() {
			return true
		}
		time.Sleep(interval)
	}
	return cond()
}
