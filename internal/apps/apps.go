// Package apps implements the four applications of the paper's evaluation
// — Matrix Multiply, STREAM, Perlin Noise and N-Body — each in the four
// variants Table I compares:
//
//   - serial: plain Go reference implementations (matmul_serial.go, ...);
//   - CUDA: single-GPU versions against the cuda facade (matmul_cuda.go);
//   - MPI+CUDA: cluster versions over internal/mpi (matmul_mpicuda.go,
//     including the SUMMA algorithm for Matmul);
//   - OmpSs: task versions against the public ompss API (matmul_ompss.go).
//
// Every variant returns a Result with the same metric so the benchmark
// harness can print the paper's figures from any of them.
package apps

import (
	"fmt"
	"time"

	"github.com/bsc-repro/ompss/internal/core"
	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/mpi"
	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Result is the outcome of one application run.
type Result struct {
	// ElapsedSeconds is the measured phase (initialization excluded).
	ElapsedSeconds float64
	// Metric is the application's figure of merit (GFLOPS, GB/s, Mpixels/s).
	Metric float64
	// MetricName names the unit.
	MetricName string
	// Stats carries runtime counters (zero value for non-OmpSs variants).
	Stats core.Stats
	// Check describes validation ("" when running cost-only).
	Check string
}

func (r Result) String() string {
	return fmt.Sprintf("%.2f %s (%.4fs)", r.Metric, r.MetricName, r.ElapsedSeconds)
}

// mpiMachine is the substrate for the MPI+CUDA baselines: one MPI rank per
// node, each with its node's GPUs, sharing the simulated interconnect.
type mpiMachine struct {
	engine *sim.Engine
	world  *mpi.World
	// devs[node] are the node's GPUs; stores[node] is its host store.
	devs   [][]*gpusim.Device
	stores []*memspace.Store
	// alloc hands out program addresses from one shared logical address
	// space, so a region sent between ranks lands at the same address in
	// the receiver's store.
	alloc *memspace.Allocator
}

// newMPIMachine builds the baseline substrate for spec. Its devices run
// without stream overlap, as the baselines' blocking cudaMemcpy calls do.
func newMPIMachine(spec hw.ClusterSpec, validate bool) *mpiMachine {
	e := sim.NewEngine()
	m := &mpiMachine{engine: e, alloc: memspace.NewAllocator()}
	for i, ns := range spec.Nodes {
		var store *memspace.Store
		if validate {
			store = memspace.NewStore(memspace.Host(i))
		}
		m.stores = append(m.stores, store)
		var devs []*gpusim.Device
		for g, gs := range ns.GPUs {
			devs = append(devs, gpusim.New(e, gs, memspace.GPU(i, g), false, validate))
		}
		m.devs = append(m.devs, devs)
	}
	m.world = mpi.NewWorld(e, netsim.New(e, spec.Net, len(spec.Nodes)), m.stores)
	return m
}

// run spawns fn on every rank, waits for all to finish, and returns the
// wall-clock (virtual) duration of the slowest rank.
func (m *mpiMachine) run(fn func(p *sim.Proc, r *mpi.Rank, node int)) (sim.Time, error) {
	var maxEnd sim.Time
	remaining := sim.NewCounter(m.engine, m.world.Size())
	for i := 0; i < m.world.Size(); i++ {
		i := i
		m.world.Spawn(i, func(p *sim.Proc, r *mpi.Rank) {
			fn(p, r, i)
			if p.Now() > maxEnd {
				maxEnd = p.Now()
			}
			remaining.Done()
		})
	}
	m.engine.Go("closer", func(p *sim.Proc) {
		remaining.Wait(p)
		m.world.Shutdown()
	})
	err := m.engine.Run()
	return maxEnd, err
}

// Aliases keeping app files terse.
type (
	hwGPUSpec  = hw.GPUSpec
	hwNodeSpec = hw.NodeSpec
	durationT  = time.Duration
)

type memspaceStore = memspace.Store

// ompssCluster aliases the public cluster spec type for test helpers.
type ompssCluster = hw.ClusterSpec
