package bench

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/faults"
)

// resilienceMatmulParams returns the cluster Matmul sizes of the resilience
// grid. Smaller than fig9: every point runs validated (real bytes through
// every wire) and the grid replays the same problem nine ways. GPU-parallel
// initialization spreads the blocks across the nodes, so the affinity
// scheduler actually distributes the computation at this size — and a crash
// loses real data whose producer chains recovery must replay.
func resilienceMatmulParams(o Options) apps.MatmulParams {
	if o.Quick {
		return apps.MatmulParams{N: 512, BS: 128, Init: apps.InitGPU}
	}
	return apps.MatmulParams{N: 1024, BS: 256, Init: apps.InitGPU}
}

// resilientConfig is the cluster configuration of the resilience runs: the
// best fig9 setup plus validation (correctness is the plotted claim) and
// the fault plan under test.
func resilientConfig(o Options, nodes int, plan *faults.Plan) ompss.Config {
	cfg := clusterConfig(o, nodes)
	cfg.SlaveToSlave = true
	cfg.Presend = 1
	cfg.Validate = true
	cfg.Faults = plan
	return cfg
}

// Resilience measures the runtime under the internal/faults scenarios: a
// clean baseline, the armed-but-idle protocol overhead, random message
// drops, a degraded link, a transient stall and a permanent node crash.
// Every faulted run must produce the clean run's exact checksum — the rows
// report the throughput cost of surviving, and the counter rows show what
// the fault machinery did. This experiment has no counterpart in the paper
// (its cluster layer assumes a perfect interconnect); see EXPERIMENTS.md.
func Resilience(o Options) ([]Row, error) {
	// The counter rows below are derived across scenarios, so the grid
	// must always run in full (Execute post-filters by GridPoint), and
	// each scenario owns its fault plan — a request-level override would
	// silently invalidate the clean-vs-faulted comparison.
	o.GridPoint = ""
	o.Faults = nil
	nodes := 8
	p := resilienceMatmulParams(o)

	// Clean baseline: subsystem disarmed (Config.Faults == nil). Its
	// checksum is the ground truth every faulted run must reproduce, and
	// its virtual elapsed time places the crash mid-computation.
	clean, err := apps.MatmulOmpSs(resilientConfig(o, nodes, nil), p)
	if err != nil {
		return nil, fmt.Errorf("resilience clean baseline: %w", err)
	}
	if clean.Check == "" {
		return nil, fmt.Errorf("resilience: clean run produced no checksum")
	}
	crashAt := time.Duration(clean.Stats.ElapsedSeconds * 0.5 * float64(time.Second))

	type scenario struct {
		config string
		plan   *faults.Plan
		verify func(s ompss.Stats) error
	}
	scenarios := []scenario{
		{config: "8node matmul armed zero-fault", plan: &faults.Plan{Seed: 1},
			verify: func(s ompss.Stats) error {
				if s.DeadNodes != 0 || s.FaultDropsInjected != 0 {
					return fmt.Errorf("zero-fault plan injected: %+v", s)
				}
				return nil
			}},
		// The drop plans slow the heartbeat so the seeded drop process
		// exercises the reliable data path rather than mostly hitting
		// best-effort probes (which dominate the message population at this
		// problem size and need no retry).
		{config: "8node matmul drop0.1%",
			plan: &faults.Plan{Seed: 11, DropRate: 0.001, HeartbeatInterval: 2 * time.Millisecond}},
		{config: "8node matmul drop1%",
			plan: &faults.Plan{Seed: 12, DropRate: 0.01, HeartbeatInterval: 2 * time.Millisecond},
			verify: func(s ompss.Stats) error {
				if s.FaultDropsInjected == 0 || s.NetRetries == 0 {
					return fmt.Errorf("1%% drop plan: drops=%d retries=%d, want both > 0",
						s.FaultDropsInjected, s.NetRetries)
				}
				return nil
			}},
		{config: "8node matmul crash 1-of-8",
			plan: &faults.Plan{Seed: 13, Crashes: []faults.Crash{{Node: 5, At: crashAt}}},
			verify: func(s ompss.Stats) error {
				if s.DeadNodes != 1 {
					return fmt.Errorf("crash plan: DeadNodes = %d, want 1", s.DeadNodes)
				}
				if s.TasksReexecuted == 0 {
					return fmt.Errorf("crash plan re-executed no tasks")
				}
				return nil
			}},
		{config: "8node matmul stall 300us",
			plan: &faults.Plan{Seed: 14, Stalls: []faults.Stall{
				{Node: 3, At: crashAt, Duration: 300 * time.Microsecond}}},
			verify: func(s ompss.Stats) error {
				if s.DeadNodes != 0 {
					return fmt.Errorf("300us stall excluded %d nodes (patience is 500us)", s.DeadNodes)
				}
				return nil
			}},
		{config: "8node matmul degraded lat x4 bw x0.5",
			plan: &faults.Plan{Seed: 15, LatencyMultiplier: 4, BandwidthMultiplier: 0.5}},
	}

	unit := clean.MetricName
	rows := []Row{{Experiment: "resil", Config: "8node matmul clean", Value: clean.Metric, Unit: unit}}
	statsBy := make([]ompss.Stats, len(scenarios))
	var pts []point
	for i, sc := range scenarios {
		i, sc := i, sc
		pts = append(pts, point{
			config: sc.config,
			run: func() (float64, string, error) {
				res, err := apps.MatmulOmpSs(resilientConfig(o, nodes, sc.plan), p)
				if err != nil {
					return 0, "", err
				}
				if res.Check != clean.Check {
					return 0, "", fmt.Errorf("wrong result under faults: %s, clean %s", res.Check, clean.Check)
				}
				if sc.verify != nil {
					if err := sc.verify(res.Stats); err != nil {
						return 0, "", err
					}
				}
				statsBy[i] = res.Stats
				return res.Metric, res.MetricName, nil
			},
		})
	}

	// STREAM under drops: a bandwidth-bound, every-byte-matters workload —
	// the retry ladder must not corrupt the triad chain. Always quick-sized:
	// this point is a correctness probe, not a throughput plot.
	streamNodes := 4
	streamP := fig11Params(Options{Quick: true}, streamNodes)
	streamClean, err := apps.StreamOmpSs(resilientConfig(o, streamNodes, nil), streamP)
	if err != nil {
		return nil, fmt.Errorf("resilience stream baseline: %w", err)
	}
	pts = append(pts, point{
		config: "4node stream drop1%",
		run: func() (float64, string, error) {
			res, err := apps.StreamOmpSs(resilientConfig(o, streamNodes, &faults.Plan{Seed: 21, DropRate: 0.01}), streamP)
			if err != nil {
				return 0, "", err
			}
			if res.Check != streamClean.Check {
				return 0, "", fmt.Errorf("wrong result under faults: %s, clean %s", res.Check, streamClean.Check)
			}
			return res.Metric, res.MetricName, nil
		},
	})

	grid, err := runGrid("resil", o, pts)
	rows = append(rows, grid...)
	if err != nil {
		return rows, err
	}

	// Counter rows: what the machinery did in the hardest scenarios.
	drop := statsBy[2]
	crash := statsBy[3]
	rows = append(rows,
		Row{Experiment: "resil", Config: "drop1% injected drops", Value: float64(drop.FaultDropsInjected), Unit: "msgs"},
		Row{Experiment: "resil", Config: "drop1% retries", Value: float64(drop.NetRetries), Unit: "msgs"},
		Row{Experiment: "resil", Config: "crash heartbeat misses", Value: float64(crash.HeartbeatMisses), Unit: "probes"},
		Row{Experiment: "resil", Config: "crash dead nodes", Value: float64(crash.DeadNodes), Unit: "nodes"},
		Row{Experiment: "resil", Config: "crash tasks re-executed", Value: float64(crash.TasksReexecuted), Unit: "tasks"},
		Row{Experiment: "resil", Config: "crash recovery time", Value: crash.RecoverySeconds * 1e3, Unit: "ms"},
	)
	// The armed-but-idle protocol overhead in virtual time, which
	// TestResilienceShapes holds to its 2 % budget.
	if armed := statsBy[0].ElapsedSeconds; armed > 0 && clean.Stats.ElapsedSeconds > 0 {
		over := (armed/clean.Stats.ElapsedSeconds - 1) * 100
		rows = append(rows, Row{Experiment: "resil", Config: "armed zero-fault overhead", Value: over, Unit: "%"})
	}
	return rows, nil
}
