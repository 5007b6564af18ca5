package bench

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/apps"
	"github.com/bsc-repro/ompss/internal/sched"
)

// nodeCounts are the paper's cluster sizes.
var nodeCounts = []int{1, 2, 4, 8}

func defaultSched() sched.Policy { return sched.Dependencies }

// fig9MatmulParams returns the cluster Matmul sizes.
func fig9MatmulParams(o Options) apps.MatmulParams {
	if o.Quick {
		return apps.MatmulParams{N: 4096, BS: 512}
	}
	return apps.MatmulParams{N: 12288, BS: 1024}
}

// fig9 reproduces Figure 9: cluster Matmul over nodes x {MtoS, StoS} x
// init {seq, smp, gpu} x presend {0, 1, 2}.
func fig9(o Options) ([]Row, error) {
	p := fig9MatmulParams(o)
	var pts []point
	for _, nodes := range nodeCounts {
		for _, stos := range []bool{false, true} {
			route := "MtoS"
			if stos {
				route = "StoS"
			}
			for _, init := range []apps.InitMode{apps.InitSeq, apps.InitSMP, apps.InitGPU} {
				for _, presend := range []int{0, 1, 2} {
					cfg := clusterConfig("fig9", o, nodes)
					cfg.SlaveToSlave = stos
					cfg.Presend = presend
					pp := p
					pp.Init = init
					pts = append(pts, point{
						config: fmt.Sprintf("%dnode %s %s presend%d", nodes, route, init, presend),
						run:    func() (apps.Result, error) { return apps.MatmulOmpSs(cfg, pp) },
					})
				}
			}
		}
	}
	return runGrid("fig9", o, pts)
}

// bestClusterMatmulConfig is the winning Figure 9 setup used in Figure 10:
// slave-to-slave transfers, parallel SMP initialization, presend.
func bestClusterMatmulConfig(o Options, nodes int) ompss.Config {
	cfg := clusterConfig("fig10", o, nodes)
	cfg.SlaveToSlave = true
	cfg.Presend = 2
	return cfg
}

// fig10 reproduces Figure 10: best OmpSs Matmul vs the MPI+CUDA SUMMA.
func fig10(o Options) ([]Row, error) {
	p := fig9MatmulParams(o)
	p.Init = apps.InitSMP
	var pts []point
	for _, nodes := range nodeCounts {
		cfg := bestClusterMatmulConfig(o, nodes)
		if o.Trace != nil && nodes == nodeCounts[len(nodeCounts)-1] {
			cfg.Trace = o.Trace
		}
		pts = append(pts, point{
			config: fmt.Sprintf("%dnode ompss", nodes),
			run:    func() (apps.Result, error) { return apps.MatmulOmpSs(cfg, p) },
		}, point{
			config: fmt.Sprintf("%dnode mpi+cuda", nodes),
			run: func() (apps.Result, error) {
				return apps.MatmulMPICUDA(ompss.GPUCluster(nodes), fig9MatmulParams(o), false)
			},
		})
	}
	return runGrid("fig10", o, pts)
}

// fig11Params returns the cluster STREAM sizes (768 MB per node).
func fig11Params(o Options, nodes int) apps.StreamParams {
	perNodeElems := 32 << 20
	block := 4 << 20
	if o.Quick {
		perNodeElems = 4 << 20
		block = 512 << 10
	}
	return apps.StreamParams{N: nodes * perNodeElems, BSize: block, NTimes: 10}
}

// fig11 reproduces Figure 11: cluster STREAM, OmpSs vs MPI+CUDA.
func fig11(o Options) ([]Row, error) {
	var pts []point
	for _, nodes := range nodeCounts {
		p := fig11Params(o, nodes)
		cfg := clusterConfig("fig11", o, nodes)
		cfg.SlaveToSlave = true
		pts = append(pts, point{
			config: fmt.Sprintf("%dnode ompss", nodes),
			run:    func() (apps.Result, error) { return apps.StreamOmpSs(cfg, p) },
		}, point{
			config: fmt.Sprintf("%dnode mpi+cuda", nodes),
			run:    func() (apps.Result, error) { return apps.StreamMPICUDA(ompss.GPUCluster(nodes), p, false) },
		})
	}
	return runGrid("fig11", o, pts)
}

// fig12 reproduces Figure 12: cluster Perlin, Flush vs NoFlush, OmpSs vs
// MPI+CUDA.
func fig12(o Options) ([]Row, error) {
	var pts []point
	for _, nodes := range nodeCounts {
		for _, flush := range []bool{true, false} {
			variant := "flush"
			if !flush {
				variant = "noflush"
			}
			p := fig7Params(o, flush)
			cfg := clusterConfig("fig12", o, nodes)
			cfg.SlaveToSlave = true
			pts = append(pts, point{
				config: fmt.Sprintf("%dnode %s ompss", nodes, variant),
				run:    func() (apps.Result, error) { return apps.PerlinOmpSs(cfg, p) },
			}, point{
				config: fmt.Sprintf("%dnode %s mpi+cuda", nodes, variant),
				run:    func() (apps.Result, error) { return apps.PerlinMPICUDA(ompss.GPUCluster(nodes), p, false) },
			})
		}
	}
	return runGrid("fig12", o, pts)
}

// fig13Params returns the cluster N-Body sizes (20000 bodies, 10
// iterations, no artificial memory pressure).
func fig13Params(o Options, nodes int) apps.NBodyParams {
	p := apps.NBodyParams{N: 20000, Blocks: 2 * nodes, Iters: 10}
	if o.Quick {
		p.N = 4000
	}
	// Keep N divisible by both blocks and nodes.
	for p.N%(p.Blocks*nodes) != 0 {
		p.N++
	}
	return p
}

// fig13Config is the cluster N-Body configuration.
func fig13Config(o Options, nodes int) ompss.Config {
	cfg := clusterConfig("fig13", o, nodes)
	cfg.SlaveToSlave = true
	cfg.Presend = 2
	return cfg
}

// fig13 reproduces Figure 13: cluster N-Body, OmpSs vs MPI+CUDA.
func fig13(o Options) ([]Row, error) {
	var pts []point
	for _, nodes := range nodeCounts {
		p := fig13Params(o, nodes)
		cfg := fig13Config(o, nodes)
		pts = append(pts, point{
			config: fmt.Sprintf("%dnode ompss", nodes),
			run:    func() (apps.Result, error) { return apps.NBodyOmpSs(cfg, p) },
		}, point{
			config: fmt.Sprintf("%dnode mpi+cuda", nodes),
			run:    func() (apps.Result, error) { return apps.NBodyMPICUDA(ompss.GPUCluster(nodes), p, false) },
		})
	}
	return runGrid("fig13", o, pts)
}
