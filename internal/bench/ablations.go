package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
)

// ablations isolates each runtime mechanism — the design-choice studies
// DESIGN.md §5 calls for, beyond the paper's own parameter grid. Each row
// runs where its mechanism acts: Matmul on one 4-GPU node or a cluster,
// cluster N-Body (fig13's 2-node point) for the non-blocking cache, and
// weakscale's chains on 16 nodes with four manager shards for the
// communication threads, the one shape where their count moves the result
// at both sizes (dispatch costs no virtual time, so threads only reorder it).
// `ompss-bench -experiment ablations` prints the table.
func ablations(o Options) ([]Row, error) {
	grid := ablationGrid(o)
	pts := make([]point, len(grid))
	for i, a := range grid {
		pts[i] = point{config: a.config, run: func() (apps.Result, error) { return a.run(a.cfg) }}
	}
	return runGrid("ablations", o, pts)
}

// ablation is one row of the table: a workload run under one Config. Two
// rows are one simulation when their workload and Config are equal.
type ablation struct {
	config   string // the row's label
	workload string // names what run simulates
	cfg      ompss.Config
	run      func(ompss.Config) (apps.Result, error)
}

// ablationGrid lists the rows in table order. Each row differs in the one
// setting its label names from a row of the same workload.
func ablationGrid(o Options) []ablation {
	var grid []ablation
	add := func(config, workload string, cfg ompss.Config, run func(ompss.Config) (apps.Result, error)) {
		grid = append(grid, ablation{config, workload, cfg, run})
	}
	p := fig5Params(o)
	matmul := func(cfg ompss.Config) (apps.Result, error) { return apps.MatmulOmpSs(cfg, p) }
	pCluster := fig9MatmulParams(o)
	pCluster.Init = apps.InitSMP
	clusterMatmul := func(cfg ompss.Config) (apps.Result, error) { return apps.MatmulOmpSs(cfg, pCluster) }
	nbody := func(cfg ompss.Config) (apps.Result, error) { return apps.NBodyOmpSs(cfg, fig13Params(o, 2)) }
	chains, depth := weakscaleSize(o)
	weakscale := func(cfg ompss.Config) (apps.Result, error) {
		st, err := weakscaleRun(cfg, chains, depth)
		return apps.Result{Metric: float64(len(cfg.Cluster.Nodes)*chains*depth) / st.ElapsedSeconds, MetricName: "tasks/s"}, err
	}
	cluster := func(nodes int) ompss.Config {
		cfg := clusterConfig("fig9", o, nodes)
		cfg.SlaveToSlave = true
		cfg.Presend = 2
		return cfg
	}

	for _, on := range []bool{false, true} {
		cfg := multiGPUConfig(4, "wb", defaultSched())
		cfg.Overlap = on
		add(fmt.Sprintf("4gpu overlap=%v", on), "matmul", cfg, matmul)
	}
	cfg := multiGPUConfig(4, "wb", defaultSched())
	cfg.Overlap, cfg.Prefetch = true, true
	add("4gpu overlap prefetch=true", "matmul", cfg, matmul) // against overlap=true
	for _, on := range []bool{false, true} {
		cfg := fig13Config(o, 2)
		cfg.NonBlockingCache = on
		add(fmt.Sprintf("2node nbody nonblocking=%v", on), "nbody", cfg, nbody)
	}
	for _, presend := range []int{0, 1, 2, 4} {
		cfg := cluster(4)
		cfg.Presend = presend
		add(fmt.Sprintf("4node presend=%d", presend), "cluster matmul", cfg, clusterMatmul)
	}
	for _, on := range []bool{false, true} {
		cfg := cluster(8)
		cfg.SlaveToSlave = on
		add(fmt.Sprintf("8node stos=%v", on), "cluster matmul", cfg, clusterMatmul)
	}
	for _, threads := range []int{1, 2, 4} {
		const nodes = 16
		cfg := weakscaleConfig(nodes, weakscaleShards(nodes))
		cfg.CommThreads = threads
		add(fmt.Sprintf("16node weakscale commthreads=%d", threads), "weakscale", cfg, weakscale)
	}
	return grid
}
