package core

import (
	"time"

	"github.com/bsc-repro/ompss/internal/gpusim"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// This file is the runtime side of the HEFT cost model: per-place
// compute/transfer estimates derived from the hardware specs
// (gpusim.KernelCost, TransferCost) and the coherence directory's view of
// where each task's data currently lives, plus the memoized upward rank
// over the dependency graph. The estimators are predictions only — the
// simulated execution still charges the exact modeled costs — so a wrong
// estimate degrades the schedule, never correctness.

// incompatible marks a place that cannot run the task at all.
var incompatible = sched.Estimate{Compute: -1}

// missingBytes is size minus held, saturating at zero (held can exceed
// the queried region when the directory tracks a covering line).
func missingBytes(size, held uint64) uint64 {
	if held >= size {
		return 0
	}
	return size - held
}

// placeEstimates predicts, for each local place, how long t would compute
// there and how long its input data would take to arrive. Place 0 is the
// CPU pool; place 1+g is GPU g. The transfer term charges only the bytes
// the directory says are missing at the place, so a task whose inputs are
// already resident looks cheap exactly where affinity would send it.
func (n *nodeRT) placeEstimates(t *task.Task) []sched.Estimate {
	out := n.estimates
	for place := 0; place < n.places; place++ {
		if !n.canRun(place, t) {
			out[place] = incompatible
			continue
		}
		var e sched.Estimate
		if place == 0 {
			e.Compute = t.Work.CPUCost(n.spec)
			for _, c := range t.Copies() {
				if !c.Access.Reads() {
					continue
				}
				if miss := missingBytes(c.Region.Size, n.dir.HeldBytes(c.Region, memspace.Host(n.id))); miss > 0 {
					// Host staging is a device readback or a network pull;
					// charge the slower of the two wires the node owns.
					e.Transfer += time.Duration(float64(miss) / n.spec.HostMemBandwidth * 1e9)
				}
			}
		} else {
			g := place - 1
			spec := n.spec.GPUs[g]
			e.Compute = t.Work.GPUCost(spec)
			loc := memspace.GPU(n.id, g)
			for _, c := range t.Copies() {
				if !c.Access.Reads() {
					continue
				}
				if miss := missingBytes(c.Region.Size, n.dir.HeldBytes(c.Region, loc)); miss > 0 {
					e.Transfer += gpusim.TransferCost(spec, miss)
				}
			}
		}
		out[place] = e
	}
	return out
}

// nodeHeldBytes is the cluster-level residency of r on node k, mirroring
// clusterScore: the master's host and GPUs together count as node 0,
// slaves count their host image only.
func (rt *Runtime) nodeHeldBytes(r memspace.Region, k int) uint64 {
	m := rt.master()
	if k == 0 {
		if hb := m.dir.HeldBytes(r, memspace.Host(0)); hb > 0 {
			return hb
		}
		for g := range m.devs {
			if hb := m.dir.HeldBytes(r, memspace.GPU(0, g)); hb > 0 {
				return hb
			}
		}
		return 0
	}
	if rt.nodeIsDead(k) {
		return 0
	}
	return m.dir.HeldBytes(r, memspace.Host(k))
}

// clusterEstimates predicts per-node finish components for the master's
// cluster-level scheduler: compute on the node's own silicon, transfer
// over the interconnect for whatever bytes the node is missing (plus the
// PCIe hop for CUDA tasks).
func (rt *Runtime) clusterEstimates(t *task.Task) []sched.Estimate {
	net := rt.cfg.Cluster.Net
	out := rt.cl.estimates
	for k, n := range rt.nodes {
		if !rt.clusterCanRun(k, t) {
			out[k] = incompatible
			continue
		}
		var e sched.Estimate
		var gspec *hw.GPUSpec
		if t.Device == task.CUDA {
			spec := n.spec.GPUs[0]
			gspec = &spec
			e.Compute = t.Work.GPUCost(spec)
		} else {
			e.Compute = t.Work.CPUCost(n.spec)
		}
		for _, c := range t.Copies() {
			if !c.Access.Reads() {
				continue
			}
			miss := missingBytes(c.Region.Size, rt.nodeHeldBytes(c.Region, k))
			if miss == 0 {
				continue
			}
			if k != 0 {
				// The bytes cross the wire (from the master or a peer).
				e.Transfer += net.PerMessageOverhead + net.Latency +
					time.Duration(float64(miss)/net.Bandwidth*1e9)
			}
			if gspec != nil {
				// And then the PCIe hop into the device.
				e.Transfer += gpusim.TransferCost(*gspec, miss)
			}
		}
		out[k] = e
	}
	return out
}

// avgCompute is the HEFT "average computation cost" of t: its modeled
// duration averaged over every unit in the cluster that can run it.
func (rt *Runtime) avgCompute(t *task.Task) time.Duration {
	var sum time.Duration
	var cnt int
	for _, n := range rt.nodes {
		if t.Device == task.CUDA {
			for _, gs := range n.spec.GPUs {
				sum += t.Work.GPUCost(gs)
				cnt++
			}
		} else {
			sum += t.Work.CPUCost(n.spec)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / time.Duration(cnt)
}

// upwardRank is the HEFT task priority: average compute cost plus the
// maximum rank over known successors in the dependency graph, memoized
// per task. Ranks are computed against the graph as known when the task
// first becomes ready; arcs added by later submissions do not retrofit
// already-memoized ranks (standard for an online HEFT — the rank is a
// priority, not a guarantee).
func (rt *Runtime) upwardRank(t *task.Task) time.Duration {
	if r, ok := rt.rankMemo[t.ID]; ok {
		return r
	}
	// Iterative DFS: the graph is acyclic, and the walk fully resolves each
	// pushed subtree before its parent advances, so any task reached twice
	// is already memoized.
	type frame struct {
		t     *task.Task
		succs []*task.Task
		i     int
	}
	stack := []frame{{t: t, succs: rt.graph.Successors(t)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.succs) {
			s := f.succs[f.i]
			f.i++
			if _, ok := rt.rankMemo[s.ID]; !ok {
				stack = append(stack, frame{t: s, succs: rt.graph.Successors(s)})
			}
			continue
		}
		var best time.Duration
		for _, s := range f.succs {
			if r := rt.rankMemo[s.ID]; r > best {
				best = r
			}
		}
		rt.rankMemo[f.t.ID] = rt.avgCompute(f.t) + best
		stack = stack[:len(stack)-1]
	}
	return rt.rankMemo[t.ID]
}

// costModel bundles the node-local estimators for the place scheduler.
// Built for every policy (only HEFT consults it; construction is free).
func (n *nodeRT) costModel() *sched.CostModel {
	return &sched.CostModel{Estimates: n.placeEstimates, Rank: n.rt.upwardRank}
}

// clusterCostModel bundles the cluster-level estimators.
func (rt *Runtime) clusterCostModel() *sched.CostModel {
	return &sched.CostModel{Estimates: rt.clusterEstimates, Rank: rt.upwardRank}
}
