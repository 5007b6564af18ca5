package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// The crash sweep derives its crash points from a crash-free traced run of
// a shape: for every span on the victim node and every NetSend into it, the
// victim crashes at the span's start + 1 ns and at its midpoint. Each point
// is classified:
//   - ok: Run returns nil with the crash-free run's bytes, a second run is
//     identical, and exactly the planned nodes died — but a crash later
//     than the failure detector's patience before the crash-free run's end
//     may go unnoticed: the victim's last role can be done by then (its
//     last pushes landed, only their acknowledgements are lost), and the
//     detector stops when main returns;
//   - wrong: Run returns nil with other bytes (dead=N: the right bytes but
//     N deaths; diverged: the second run differs);
//   - livelock: main has not returned by sweepBound times the crash-free
//     run's virtual end;
//   - panic: the first line of any other error Run returns.
// TestCrashSweepSample runs a fixed sample of it in tier-1; `make
// crashsweep` runs every point (crashsweep_full_test.go).

// sweepBound is how many crash-free run lengths a crashed run may take
// before it counts as a livelock.
const sweepBound = 200

// sweepSeed seeds every plan of the sweep.
const sweepSeed = 5

var errLivelock = errors.New("crash sweep: main has not returned by the bound")

// sweepShape is one workload of the sweep: a configuration without Faults
// and a program that returns the bytes its checksum compares.
type sweepShape struct {
	name string
	cfg  Config
	main func(mc *MainCtx) []byte
}

// run executes s under plan. A positive bound arms the livelock check: a
// callback in step with the master's heartbeat loop, which ends when that
// loop does, so an unbounded and a bounded run end at the same instant.
func (s sweepShape) run(plan *faults.Plan, rec *trace.Recorder, bound sim.Time) (Stats, []byte, error) {
	cfg := s.cfg
	cfg.Faults, cfg.Trace = plan, rec
	rt := New(cfg)
	if bound > 0 {
		hb := plan.HeartbeatIntervalOr()
		var check func()
		check = func() {
			switch {
			case rt.master().stopping:
			case rt.e.Now() >= bound:
				panic(errLivelock)
			default:
				rt.e.After(hb, check)
			}
		}
		rt.e.After(hb, check)
	}
	var got []byte
	stats, err := rt.Run(func(mc *MainCtx) { got = s.main(mc) })
	return stats, got, err
}

// sweepPoint is one crash plan of a sweep and its class.
type sweepPoint struct {
	crashes []faults.Crash
	class   string
}

func (p sweepPoint) String() string {
	var at []string
	for _, c := range p.crashes {
		at = append(at, fmt.Sprintf("node%d@%v", c.Node, c.At))
	}
	return strings.Join(at, "+") + ": " + p.class
}

// sweep derives shape s's crash points for victim from a crash-free traced
// run and classifies those that keep admits (by index in time order). Each
// point crashes victim at its time and every node of also at that time plus
// its offset.
func sweep(t *testing.T, s sweepShape, victim int, also []faults.Crash, keep func(i int, at time.Duration) bool) []sweepPoint {
	t.Helper()
	rec := trace.New()
	stats, want, err := s.run(&faults.Plan{Seed: sweepSeed}, rec, 0)
	if err != nil {
		t.Fatalf("%s: the crash-free run: %v", s.name, err)
	}
	end := time.Duration(stats.ElapsedSeconds * 1e9)
	late := end - missThreshold*faults.Plan{}.HeartbeatIntervalOr()
	var out []sweepPoint
	for i, at := range crashTimes(rec, victim) {
		if !keep(i, at) {
			continue
		}
		crashes := []faults.Crash{{Node: victim, At: at}}
		for _, c := range also {
			crashes = append(crashes, faults.Crash{Node: c.Node, At: at + c.At})
		}
		out = append(out, sweepPoint{crashes, s.classify(crashes, want, sim.Time(end)*sweepBound, late)})
	}
	return out
}

// crashTimes are the crash points of victim in a crash-free trace, ascending.
func crashTimes(rec *trace.Recorder, victim int) []time.Duration {
	var at []time.Duration
	for _, sp := range rec.Spans() {
		if sp.Node == victim || sp.Kind == trace.NetSend && sp.Peer == victim {
			at = append(at, time.Duration(sp.Start+1), time.Duration(sp.Start+(sp.End-sp.Start)/2))
		}
	}
	slices.Sort(at)
	return slices.Compact(at)
}

// classify runs s with crashes, twice when the first run is ok. A crash
// from late on need not be detected.
func (s sweepShape) classify(crashes []faults.Crash, want []byte, bound sim.Time, late time.Duration) string {
	must := 0
	for _, c := range crashes {
		if c.At < late {
			must++
		}
	}
	plan := func() *faults.Plan { return &faults.Plan{Seed: sweepSeed, Crashes: crashes} }
	stats, got, err := s.run(plan(), nil, bound)
	switch {
	case errors.Is(err, errLivelock):
		return "livelock"
	case err != nil:
		var pe *sim.ProcPanicError
		msg := err.Error()
		if errors.As(err, &pe) {
			msg = fmt.Sprint(pe.Value)
		}
		first, _, _ := strings.Cut(msg, "\n")
		return "panic: " + first
	case string(got) != string(want):
		return "wrong"
	case stats.DeadNodes < must || stats.DeadNodes > len(crashes):
		return fmt.Sprintf("dead=%d", stats.DeadNodes)
	}
	again, got2, err := s.run(plan(), nil, bound)
	if err != nil || string(got2) != string(got) || fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", stats) {
		return "diverged"
	}
	return "ok"
}

// tally counts points by class, classes in name order.
func tally(points []sweepPoint) string {
	n := map[string]int{}
	for _, p := range points {
		n[p.class]++
	}
	var parts []string
	for _, c := range slices.Sorted(maps.Keys(n)) {
		parts = append(parts, fmt.Sprintf("%d %s", n[c], c))
	}
	return fmt.Sprintf("%d points: %s", len(points), strings.Join(parts, ", "))
}

// chainShape is chainRun's workload: 3 rounds of CUDA inc tasks over 5
// regions of 256 KiB on 4 nodes of gpus GPUs each, BreadthFirst, Presend 1,
// shards manager shards at 2 µs an operation. Every byte ends at
// chainRounds.
func chainShape(gpus, shards int, nbc bool) sweepShape {
	cfg := baseCfg(4, gpus)
	cfg.Scheduler = sched.BreadthFirst
	cfg.NonBlockingCache, cfg.Presend, cfg.ManagerShards, cfg.ManagerOpCost = nbc, 1, shards, 2*time.Microsecond
	return sweepShape{fmt.Sprintf("chain/gpus=%d/shards=%d/nbc=%v", gpus, shards, nbc), cfg, func(mc *MainCtx) []byte {
		return incChain(mc, func(r memspace.Region) TaskDef {
			return TaskDef{Name: "inc", Device: task.CUDA, Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: r, delta: 1, cost: 2 * time.Millisecond}}
		})
	}}
}

// nestedShape is chainShape at one shard with NBC and free manager
// operations, where each task is an SMP inc whose spawner submits a CUDA
// inc child on the same region: every byte ends at twice chainRounds.
func nestedShape(gpus int) sweepShape {
	s := chainShape(gpus, 1, true)
	s.name, s.cfg.ManagerOpCost = fmt.Sprintf("nested/gpus=%d", gpus), 0
	s.main = func(mc *MainCtx) []byte {
		return incChain(mc, func(r memspace.Region) TaskDef {
			return TaskDef{Name: "inc", Device: task.SMP, Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: r, delta: 1, cost: 100 * time.Microsecond},
				Spawner: func(lcI interface{}) {
					lc := lcI.(*LocalCtx)
					lc.Submit(TaskDef{Name: "inc-child", Device: task.CUDA, Deps: []task.Dep{inoutDep(r)},
						Work: incWork{r: r, delta: 1, cost: 2 * time.Millisecond}})
					lc.Wait()
				}}
		})
	}
	return s
}

// incChain allocates 5 zeroed regions of 256 KiB, submits chainRounds
// rounds of one task per region, and returns each region's first byte.
func incChain(mc *MainCtx, inc func(memspace.Region) TaskDef) []byte {
	regs := make([]memspace.Region, 5)
	for i := range regs {
		regs[i] = mc.Alloc(1 << 18)
		mc.InitSeq(regs[i], func(b []byte) { fill(b, 0) })
	}
	for round := 0; round < chainRounds; round++ {
		for _, r := range regs {
			mc.Submit(inc(r))
		}
	}
	mc.TaskWait()
	results := make([]byte, len(regs))
	for i, r := range regs {
		results[i] = mc.HostBytes(r)[0]
	}
	return results
}

// heatShape is the heat stencil of apps.HeatOmpSs on chainShape's machine
// at 1 GPU and 1 shard, with S2S set by s2s: 32 blocks of bsize cells
// initialised by SMP tasks, then steps Jacobi sweeps of CUDA tasks over
// ping-pong arrays. It returns the final rod's bytes.
func heatShape(bsize, steps int, s2s bool) sweepShape {
	s := chainShape(1, 1, true)
	s.name, s.cfg.SlaveToSlave = fmt.Sprintf("heat/bsize=%d/steps=%d/s2s=%v", bsize, steps, s2s), s2s
	s.main = func(mc *MainCtx) []byte {
		const cell, nb = 8, 32
		n := nb * bsize
		cur, nxt := mc.Alloc(uint64(n)*cell), mc.Alloc(uint64(n)*cell)
		sub := func(r memspace.Region, i0, k int) memspace.Region {
			return memspace.Region{Addr: r.Addr + uint64(i0)*cell, Size: uint64(k) * cell}
		}
		for j := 0; j < nb; j++ {
			blk := sub(cur, j*bsize, bsize)
			mc.Submit(TaskDef{Name: "heat-init", Device: task.SMP, Deps: []task.Dep{outDep(blk)},
				Work: kernels.HeatInit{R: blk, Block0: j * bsize}})
		}
		mc.TaskWaitNoflush()
		for s := 0; s < steps; s++ {
			for j := 0; j < nb; j++ {
				i0, lh, rh := j*bsize, 0, 0
				if j > 0 {
					lh = 1
				}
				if j < nb-1 {
					rh = 1
				}
				in, out := sub(cur, i0-lh, bsize+lh+rh), sub(nxt, i0, bsize)
				mc.Submit(TaskDef{Name: "jacobi", Device: task.CUDA, Deps: []task.Dep{inDep(in), outDep(out)},
					Work: kernels.JacobiStep{In: in, Out: out, LeftHalo: lh, RightHalo: rh, Alpha: 0.25}})
			}
			cur, nxt = nxt, cur
		}
		mc.TaskWait()
		return slices.Clone(mc.HostBytes(cur))
	}
	return s
}

// TestCrashSweepSample runs a fixed sample of the crash sweep: victim node
// 2 of the chain shape with NBC at 1 and 2 GPUs and 1 and 2 shards, and of
// the nested shape at 1 and 2 GPUs, every fourth crash point of each plus
// three named points. Each named point failed before replayed producers
// ran on the master host: at 1 GPU and 1 shard the master's only GPU
// manager parked in staging on the restore fence with the replay queued
// behind it (livelock); at 2 GPUs and 2 shards Run returned nil with a
// region one short (wrong); the nested shape at 1 GPU livelocked. Every
// point must be ok.
func TestCrashSweepSample(t *testing.T) {
	named := map[string]time.Duration{
		"chain/gpus=1/shards=1/nbc=true": 4365682 * time.Nanosecond,
		"chain/gpus=2/shards=2/nbc=true": 4979777 * time.Nanosecond,
		"nested/gpus=1":                  4059742 * time.Nanosecond,
	}
	shapes := []sweepShape{chainShape(1, 1, true), chainShape(1, 2, true), chainShape(2, 1, true),
		chainShape(2, 2, true), nestedShape(1), nestedShape(2)}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			seen := false
			points := sweep(t, s, 2, nil, func(i int, at time.Duration) bool {
				if at == named[s.name] {
					seen = true
					return true
				}
				return i%4 == 0
			})
			if at, ok := named[s.name]; ok && !seen {
				t.Errorf("the named point %v is no longer a crash point of %s", at, s.name)
			}
			for _, p := range points {
				if p.class != "ok" {
					t.Errorf("%v", p)
				}
			}
			t.Log(tally(points))
		})
	}
}
