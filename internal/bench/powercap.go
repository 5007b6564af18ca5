package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/sched"
)

// The powercap experiment maps the time-vs-power frontier of a
// heterogeneous (mixed GTX480 + Tesla S2050) cluster: the same validated
// Matmul runs under every scheduler — including heft, the policy built
// for mixed generations — at a descending ladder of cluster power caps
// (Config.PowerCapWatts). Each grid point reports two rows, virtual-time
// elapsed seconds and the recorded peak draw, so the output shows both
// halves of the trade: tighter caps never change results (the governor
// only defers kernel launches; the verify rows pin checksums capped vs
// uncapped) but cost time, and a cost-model scheduler loses less of it.
// The "heft uncapped throughput" row is the deterministic virtual-time
// tasks/sec that cmd/smoke_test.go pins exactly.

// powercapSchedulers is the frontier's scheduler sweep: the paper's three
// policies plus heft.
var powercapSchedulers = []sched.Policy{sched.BreadthFirst, sched.Dependencies, sched.Affinity, sched.HEFT}

// powercapCluster is the mixed machine every row runs on.
func powercapCluster() hw.ClusterSpec { return ompss.MixedGPUCluster(2, 2) }

// powercapCaps derives the cap ladder from the cluster's own power
// envelope: fractions of the all-GPUs-busy span above idle, clamped to
// the feasibility floor (idle + the largest single-kernel delta, below
// which the runtime rejects the cap).
func powercapCaps(c hw.ClusterSpec) []float64 {
	idle := c.IdleWatts()
	var sumDelta, maxDelta float64
	for _, nd := range c.Nodes {
		for _, g := range nd.GPUs {
			d := g.Power.Delta()
			sumDelta += d
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	floor := idle + maxDelta
	caps := []float64{0} // 0 = uncapped
	for _, f := range []float64{0.7, 0.35} {
		w := idle + f*sumDelta
		if w < floor {
			w = floor
		}
		caps = append(caps, w)
	}
	return caps
}

// powercapConfig is one grid point's runtime configuration.
func powercapConfig(policy sched.Policy, capW float64, validate bool) ompss.Config {
	return ompss.Config{
		Cluster:          powercapCluster(),
		Scheduler:        policy,
		CachePolicy:      coherence.WriteBack,
		NonBlockingCache: true,
		Steal:            true,
		SlaveToSlave:     true,
		PowerCapWatts:    capW,
		Validate:         validate,
	}
}

func powercapParams(quick bool) apps.MatmulParams {
	if quick {
		return apps.MatmulParams{N: 512, BS: 128, Init: apps.InitGPU}
	}
	return apps.MatmulParams{N: 1024, BS: 128, Init: apps.InitGPU}
}

// capLabel prints a cap for row configs ("none" for uncapped).
func capLabel(w float64) string {
	if w == 0 {
		return "none"
	}
	return fmt.Sprintf("%.0fW", w)
}

// powercapVerify runs the validated Matmul capped and uncapped under one
// scheduler and fails on checksum divergence — the governor must trade
// time for power without touching results.
func powercapVerify(policy sched.Policy, capW float64, quick bool) (float64, string, error) {
	p := powercapParams(quick)
	uncapped, err := apps.MatmulOmpSs(powercapConfig(policy, 0, true), p)
	if err != nil {
		return 0, "", fmt.Errorf("powercap verify %s uncapped: %w", schedLabel(policy), err)
	}
	capped, err := apps.MatmulOmpSs(powercapConfig(policy, capW, true), p)
	if err != nil {
		return 0, "", fmt.Errorf("powercap verify %s cap=%s: %w", schedLabel(policy), capLabel(capW), err)
	}
	if uncapped.Check != capped.Check {
		return 0, "", fmt.Errorf("powercap verify %s: checksum diverged: uncapped %s vs cap=%s %s",
			schedLabel(policy), uncapped.Check, capLabel(capW), capped.Check)
	}
	if capped.Stats.PowerPeakWatts > capW {
		return 0, "", fmt.Errorf("powercap verify %s: peak %.0f W exceeded the %s cap",
			schedLabel(policy), capped.Stats.PowerPeakWatts, capLabel(capW))
	}
	return 1, "ok", nil
}

// Powercap is the heterogeneous time-vs-power-cap frontier (not a paper
// figure; see EXPERIMENTS.md "Power-capped heterogeneous clusters").
func Powercap(o Options) ([]Row, error) {
	caps := powercapCaps(powercapCluster())
	tightest := caps[len(caps)-1]
	rows := []Row{}
	// Correctness gate first: capping must never change what is computed.
	v, unit, err := powercapVerify(sched.HEFT, tightest, o.Quick)
	if err != nil {
		return rows, err
	}
	rows = append(rows, Row{Experiment: "powercap",
		Config: fmt.Sprintf("verify heft cap=%s vs none checksum", capLabel(tightest)),
		Value:  v, Unit: unit})
	p := powercapParams(o.Quick)
	for _, policy := range powercapSchedulers {
		for _, capW := range caps {
			res, err := apps.MatmulOmpSs(powercapConfig(policy, capW, false), p)
			if err != nil {
				return rows, fmt.Errorf("powercap %s cap=%s: %w", schedLabel(policy), capLabel(capW), err)
			}
			cfgName := fmt.Sprintf("matmul %s cap=%s", schedLabel(policy), capLabel(capW))
			rows = append(rows,
				Row{Experiment: "powercap", Config: cfgName, Value: res.ElapsedSeconds * 1e3, Unit: "ms"},
				Row{Experiment: "powercap", Config: cfgName + " peak", Value: res.Stats.PowerPeakWatts, Unit: "W"})
			if policy == sched.HEFT && capW == 0 {
				// The deterministic throughput row the smoke test pins.
				tasks := float64(res.Stats.TasksSMP + res.Stats.TasksCUDA)
				rows = append(rows, Row{Experiment: "powercap",
					Config: "heft uncapped throughput",
					Value:  tasks / res.ElapsedSeconds, Unit: "tasks/s"})
			}
		}
	}
	return rows, nil
}
