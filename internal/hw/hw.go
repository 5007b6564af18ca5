// Package hw describes the simulated hardware: GPU devices, host nodes,
// PCIe links and the cluster interconnect. The two presets mirror the
// evaluation environments of the paper (Section IV.A.1): a single node with
// four Tesla S2050-class GPUs, and a cluster whose nodes carry one GTX
// 480-class GPU each, connected by QDR InfiniBand.
package hw

import (
	"fmt"
	"time"
)

// PowerDraw is the electrical draw of one component: the baseline it
// consumes whenever the machine is on, and the draw while it executes.
// The power governor (core.Config.PowerCapWatts) schedules against the
// busy-minus-idle delta of each kernel launch.
type PowerDraw struct {
	// IdleWatts is the draw of the powered-on, idle component.
	IdleWatts float64
	// BusyWatts is the draw under full load. Must be >= IdleWatts.
	BusyWatts float64
}

// Delta returns the extra watts the component draws when busy.
func (p PowerDraw) Delta() float64 { return p.BusyWatts - p.IdleWatts }

func (p PowerDraw) validate(what string) error {
	if p.IdleWatts <= 0 {
		return fmt.Errorf("hw: %s has non-positive idle power %.1f W", what, p.IdleWatts)
	}
	if p.BusyWatts < p.IdleWatts {
		return fmt.Errorf("hw: %s busy power %.1f W below idle %.1f W", what, p.BusyWatts, p.IdleWatts)
	}
	return nil
}

// GPUSpec describes one GPU device for the roofline cost model.
type GPUSpec struct {
	Name string
	// PeakSPFlops is the peak single-precision rate in FLOP/s.
	PeakSPFlops float64
	// KernelEfficiency derates the peak for realistic kernels (CUBLAS SGEMM
	// reaches roughly 60-70% of peak on Fermi-class parts).
	KernelEfficiency float64
	// MemBandwidth is the device memory bandwidth in bytes/s.
	MemBandwidth float64
	// MemBytes is the device memory capacity available to the runtime.
	MemBytes uint64
	// KernelLaunchOverhead is the fixed host-side cost of launching a kernel.
	KernelLaunchOverhead time.Duration
	// PCIeBandwidth is the effective host<->device bandwidth in bytes/s
	// (each direction; the two directions are independent engines).
	PCIeBandwidth float64
	// PCIeLatency is the fixed per-transfer setup latency.
	PCIeLatency time.Duration
	// PinnedCopyBandwidth is the host memcpy bandwidth used when staging
	// user memory into page-locked buffers for async transfers.
	PinnedCopyBandwidth float64
	// Power is the device's electrical draw (idle baseline and busy load).
	Power PowerDraw
}

// EffectiveFlops returns the derated compute rate.
func (g GPUSpec) EffectiveFlops() float64 { return g.PeakSPFlops * g.KernelEfficiency }

// NodeSpec describes one cluster node.
type NodeSpec struct {
	Name     string
	CPUCores int
	// CPUFlops is the per-core effective single-precision rate, for SMP tasks.
	CPUFlops float64
	// HostMemBandwidth is host RAM bandwidth in bytes/s (memcpy and
	// host-side kernel work).
	HostMemBandwidth float64
	HostMemBytes     uint64
	GPUs             []GPUSpec
	// HostPower is the node's draw excluding its GPUs (CPUs, memory, fans).
	HostPower PowerDraw
}

// NetSpec describes the cluster interconnect.
type NetSpec struct {
	Name string
	// Bandwidth is the effective point-to-point bandwidth in bytes/s.
	Bandwidth float64
	// Latency is the one-way message latency.
	Latency time.Duration
	// PerMessageOverhead is the sender-side CPU cost per message (active
	// message handler dispatch, header packing).
	PerMessageOverhead time.Duration
}

// ClusterSpec is a full machine description.
type ClusterSpec struct {
	Name  string
	Nodes []NodeSpec
	Net   NetSpec
}

// TotalGPUs returns the number of GPUs across all nodes.
func (c ClusterSpec) TotalGPUs() int {
	n := 0
	for _, nd := range c.Nodes {
		n += len(nd.GPUs)
	}
	return n
}

// IdleWatts returns the cluster's baseline draw: every node's host power
// plus every GPU's idle power.
func (c ClusterSpec) IdleWatts() float64 {
	var w float64
	for _, nd := range c.Nodes {
		w += nd.HostPower.IdleWatts
		for _, g := range nd.GPUs {
			w += g.Power.IdleWatts
		}
	}
	return w
}

// Validate rejects spec values the cost models cannot price: zero or
// negative bandwidths and latencies turn into Inf/NaN durations inside
// gpusim.KernelCost/TransferCost, zero capacities make every working set
// overflow, and non-positive power draws break the power governor's
// accounting. Errors name the offending node/GPU.
func (c ClusterSpec) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("hw: cluster %q has no nodes", c.Name)
	}
	if c.Net.Bandwidth <= 0 {
		return fmt.Errorf("hw: cluster %q net %q has non-positive bandwidth %g B/s", c.Name, c.Net.Name, c.Net.Bandwidth)
	}
	if c.Net.Latency < 0 || c.Net.PerMessageOverhead < 0 {
		return fmt.Errorf("hw: cluster %q net %q has negative latency/overhead", c.Name, c.Net.Name)
	}
	for i, nd := range c.Nodes {
		what := fmt.Sprintf("node %d (%s)", i, nd.Name)
		if nd.CPUCores <= 0 {
			return fmt.Errorf("hw: %s has no CPU cores", what)
		}
		if nd.CPUFlops <= 0 {
			return fmt.Errorf("hw: %s has non-positive CPU rate %g FLOP/s", what, nd.CPUFlops)
		}
		if nd.HostMemBandwidth <= 0 {
			return fmt.Errorf("hw: %s has non-positive host memory bandwidth %g B/s", what, nd.HostMemBandwidth)
		}
		if nd.HostMemBytes == 0 {
			return fmt.Errorf("hw: %s has zero host memory", what)
		}
		if err := nd.HostPower.validate(what + " host"); err != nil {
			return err
		}
		for g, gs := range nd.GPUs {
			gwhat := fmt.Sprintf("node %d GPU %d (%s)", i, g, gs.Name)
			switch {
			case gs.PeakSPFlops <= 0:
				return fmt.Errorf("hw: %s has non-positive peak rate %g FLOP/s", gwhat, gs.PeakSPFlops)
			case gs.KernelEfficiency <= 0 || gs.KernelEfficiency > 1:
				return fmt.Errorf("hw: %s has kernel efficiency %g outside (0,1]", gwhat, gs.KernelEfficiency)
			case gs.MemBandwidth <= 0:
				return fmt.Errorf("hw: %s has non-positive memory bandwidth %g B/s", gwhat, gs.MemBandwidth)
			case gs.MemBytes == 0:
				return fmt.Errorf("hw: %s has zero device memory", gwhat)
			case gs.PCIeBandwidth <= 0:
				return fmt.Errorf("hw: %s has non-positive PCIe bandwidth %g B/s", gwhat, gs.PCIeBandwidth)
			case gs.PinnedCopyBandwidth <= 0:
				return fmt.Errorf("hw: %s has non-positive pinned-copy bandwidth %g B/s", gwhat, gs.PinnedCopyBandwidth)
			case gs.KernelLaunchOverhead < 0 || gs.PCIeLatency < 0:
				return fmt.Errorf("hw: %s has negative launch overhead or PCIe latency", gwhat)
			}
			if err := gs.Power.validate(gwhat); err != nil {
				return err
			}
		}
	}
	return nil
}

// TeslaS2050 returns the GPU spec of the multi-GPU system's devices:
// Tesla S2050, 2.62 GB visible memory, ~1.03 TFLOPS SP peak, 148 GB/s.
func TeslaS2050() GPUSpec {
	return GPUSpec{
		Name:                 "Tesla S2050",
		PeakSPFlops:          1.03e12,
		KernelEfficiency:     0.62,
		MemBandwidth:         148e9,
		MemBytes:             2620 << 20, // 2.62 GB, paper's visible capacity
		KernelLaunchOverhead: 8 * time.Microsecond,
		PCIeBandwidth:        5.6e9, // PCIe 2.0 x16 effective
		PCIeLatency:          12 * time.Microsecond,
		PinnedCopyBandwidth:  6.0e9,
		// Fermi S2050 module: 225 W TDP, ~40 W idling at the driver.
		Power: PowerDraw{IdleWatts: 40, BusyWatts: 225},
	}
}

// GTX480 returns the GPU spec of the cluster nodes: GTX 480, 1.5 GB,
// 1.35 TFLOPS SP peak, 177.4 GB/s (paper's numbers).
func GTX480() GPUSpec {
	return GPUSpec{
		Name:                 "GTX 480",
		PeakSPFlops:          1.35e12,
		KernelEfficiency:     0.60,
		MemBandwidth:         177.4e9,
		MemBytes:             1500 << 20,
		KernelLaunchOverhead: 8 * time.Microsecond,
		PCIeBandwidth:        5.6e9,
		PCIeLatency:          12 * time.Microsecond,
		PinnedCopyBandwidth:  6.0e9,
		// GeForce GTX 480: 250 W TDP, ~47 W idle (consumer Fermi runs hot).
		Power: PowerDraw{IdleWatts: 47, BusyWatts: 250},
	}
}

// multiGPUNode returns the paper's multi-GPU evaluation system: two Xeon
// E5440 (8 cores total), 15.66 GB RAM at 148 GB/s peak, and up to four
// Tesla S2050 GPUs (numGPUs selects how many are used, 1..4).
func multiGPUNode(numGPUs int) NodeSpec {
	if numGPUs < 1 || numGPUs > 4 {
		panic("hw: multiGPUNode supports 1..4 GPUs")
	}
	gpus := make([]GPUSpec, numGPUs)
	for i := range gpus {
		gpus[i] = TeslaS2050()
	}
	return NodeSpec{
		Name:             "multi-gpu-node",
		CPUCores:         8,
		CPUFlops:         8e9,
		HostMemBandwidth: 148e9 / 8, // per-core share of the paper's 148 GB/s peak
		HostMemBytes:     15660 << 20,
		GPUs:             gpus,
		// Two 80 W Xeon E5440 plus board/memory/fans.
		HostPower: PowerDraw{IdleWatts: 120, BusyWatts: 260},
	}
}

// ClusterNode returns one node of the paper's GPU cluster: two Xeon E5620
// (8 cores), 25 GB RAM, one GTX 480.
func ClusterNode() NodeSpec {
	return NodeSpec{
		Name:             "cluster-node",
		CPUCores:         8,
		CPUFlops:         9e9,
		HostMemBandwidth: 20e9,
		HostMemBytes:     25 << 30,
		GPUs:             []GPUSpec{GTX480()},
		// Two 80 W Xeon E5620 plus board/memory/fans.
		HostPower: PowerDraw{IdleWatts: 110, BusyWatts: 250},
	}
}

// teslaClusterNode returns a cluster node carrying one Tesla S2050-class
// GPU instead of the GTX 480 — the older half of the mixed-generation
// cluster the heterogeneity experiments schedule over.
func teslaClusterNode() NodeSpec {
	n := ClusterNode()
	n.Name = "cluster-node-tesla"
	n.GPUs = []GPUSpec{TeslaS2050()}
	return n
}

// qdrInfiniband returns the paper's interconnect: "QDR Infiniband network
// with a bandwidth peak of 8 Gbits/s" and native-conduit GASNet latencies.
func qdrInfiniband() NetSpec {
	return NetSpec{
		Name:               "QDR InfiniBand (GASNet ibv conduit)",
		Bandwidth:          1e9, // 8 Gbit/s
		Latency:            2 * time.Microsecond,
		PerMessageOverhead: 600 * time.Nanosecond,
	}
}

// MultiGPUSystem returns the full multi-GPU evaluation environment as a
// single-node "cluster".
func MultiGPUSystem(numGPUs int) ClusterSpec {
	return ClusterSpec{
		Name:  "multi-GPU node",
		Nodes: []NodeSpec{multiGPUNode(numGPUs)},
		Net:   qdrInfiniband(), // unused with one node
	}
}

// GPUCluster returns the cluster evaluation environment with numNodes
// single-GPU nodes on QDR InfiniBand.
func GPUCluster(numNodes int) ClusterSpec {
	if numNodes < 1 {
		panic("hw: GPUCluster needs at least one node")
	}
	nodes := make([]NodeSpec, numNodes)
	for i := range nodes {
		nodes[i] = ClusterNode()
	}
	return ClusterSpec{Name: "GPU cluster", Nodes: nodes, Net: qdrInfiniband()}
}

// MixedGPUCluster returns a heterogeneous cluster: gtx nodes carrying one
// GTX 480 each followed by tesla nodes carrying one Tesla S2050 each, on
// QDR InfiniBand. The GTX 480 is ~27% faster on compute-bound kernels, so
// a cost-model scheduler (heft) has real generation gaps to exploit where
// a locality-only policy sees identical places.
func MixedGPUCluster(gtx, tesla int) ClusterSpec {
	if gtx < 0 || tesla < 0 || gtx+tesla < 1 {
		panic("hw: MixedGPUCluster needs at least one node")
	}
	var nodes []NodeSpec
	for i := 0; i < gtx; i++ {
		nodes = append(nodes, ClusterNode())
	}
	for i := 0; i < tesla; i++ {
		nodes = append(nodes, teslaClusterNode())
	}
	return ClusterSpec{Name: "mixed GPU cluster", Nodes: nodes, Net: qdrInfiniband()}
}
