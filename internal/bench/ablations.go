package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
)

// Ablations isolates each runtime mechanism — the design-choice studies
// DESIGN.md §5 calls for, beyond the paper's own parameter grid. Each pair
// runs where its mechanism acts: Matmul on one 4-GPU node or a cluster,
// cluster N-Body (fig13's 2-node point) for the non-blocking cache, and
// weakscale's chains on 16 nodes with four manager shards for the
// communication threads, the one shape where their count moves the result
// at both sizes (dispatch costs no virtual time, so threads only reorder it).
// `ompss-bench -experiment ablations` prints the table.
func Ablations(o Options) ([]Row, error) {
	p := fig5Params(o)
	pCluster := fig9MatmulParams(o)
	pCluster.Init = apps.InitSMP

	var pts []point
	multi := func(config string, mutate func(*ompss.Config)) {
		pts = append(pts, point{config: config, run: func() (float64, string, error) {
			cfg := multiGPUConfig(o, 4, "wb", defaultSched())
			mutate(&cfg)
			res, err := apps.MatmulOmpSs(cfg, p)
			return res.Metric, "GFLOPS", err
		}})
	}
	cluster := func(config string, nodes int, mutate func(*ompss.Config)) {
		pts = append(pts, point{config: config, run: func() (float64, string, error) {
			cfg := clusterConfig(o, nodes)
			cfg.SlaveToSlave = true
			cfg.Presend = 2
			mutate(&cfg)
			res, err := apps.MatmulOmpSs(cfg, pCluster)
			return res.Metric, "GFLOPS", err
		}})
	}

	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu overlap=%v", on), func(c *ompss.Config) { c.Overlap = on })
	}
	for _, on := range []bool{false, true} {
		multi(fmt.Sprintf("4gpu overlap prefetch=%v", on), func(c *ompss.Config) { c.Overlap = true; c.Prefetch = on })
	}
	for _, on := range []bool{false, true} {
		pts = append(pts, point{config: fmt.Sprintf("2node nbody nonblocking=%v", on), run: func() (float64, string, error) {
			cfg := fig13Config(o, 2)
			cfg.NonBlockingCache = on
			res, err := apps.NBodyOmpSs(cfg, fig13Params(o, 2))
			return res.Metric, res.MetricName, err
		}})
	}
	for _, presend := range []int{0, 1, 2, 4} {
		cluster(fmt.Sprintf("4node presend=%d", presend), 4, func(c *ompss.Config) { c.Presend = presend })
	}
	for _, on := range []bool{false, true} {
		cluster(fmt.Sprintf("8node stos=%v", on), 8, func(c *ompss.Config) { c.SlaveToSlave = on })
	}
	for _, threads := range []int{1, 2, 4} {
		pts = append(pts, point{config: fmt.Sprintf("16node weakscale commthreads=%d", threads), run: func() (float64, string, error) {
			const nodes = 16
			cfg := weakscaleConfig(nodes, weakscaleShards(nodes))
			cfg.CommThreads = threads
			chains, depth := weakscaleSize(o)
			st, err := weakscaleRun(cfg, chains, depth)
			return float64(nodes*chains*depth) / st.ElapsedSeconds, "tasks/s", err
		}})
	}
	return runGrid("ablations", o, pts)
}
