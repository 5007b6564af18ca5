package hw

import "testing"

func TestPresetsMatchPaperNumbers(t *testing.T) {
	tesla := TeslaS2050()
	if tesla.PeakSPFlops != 1.03e12 || tesla.MemBandwidth != 148e9 {
		t.Fatalf("Tesla spec drifted: %+v", tesla)
	}
	if tesla.MemBytes != 2620<<20 {
		t.Fatalf("Tesla memory = %d, want the paper's 2.62 GB", tesla.MemBytes)
	}
	gtx := GTX480()
	if gtx.PeakSPFlops != 1.35e12 || gtx.MemBandwidth != 177.4e9 || gtx.MemBytes != 1500<<20 {
		t.Fatalf("GTX480 spec drifted: %+v", gtx)
	}
	net := qdrInfiniband()
	if net.Bandwidth != 1e9 {
		t.Fatalf("network = %v B/s, want the paper's 8 Gbit/s", net.Bandwidth)
	}
}

func TestEffectiveFlopsDerates(t *testing.T) {
	g := GPUSpec{PeakSPFlops: 1e12, KernelEfficiency: 0.5}
	if g.EffectiveFlops() != 5e11 {
		t.Fatalf("EffectiveFlops = %v", g.EffectiveFlops())
	}
}

func TestMultiGPUSystem(t *testing.T) {
	for gpus := 1; gpus <= 4; gpus++ {
		c := MultiGPUSystem(gpus)
		if len(c.Nodes) != 1 || len(c.Nodes[0].GPUs) != gpus {
			t.Fatalf("MultiGPUSystem(%d) = %+v", gpus, c)
		}
		if c.TotalGPUs() != gpus {
			t.Fatalf("TotalGPUs = %d", c.TotalGPUs())
		}
		if c.Nodes[0].CPUCores != 8 {
			t.Fatalf("cores = %d, want the paper's two quad-core Xeons", c.Nodes[0].CPUCores)
		}
	}
	mustPanic(t, func() { multiGPUNode(0) })
	mustPanic(t, func() { multiGPUNode(5) })
}

func TestGPUCluster(t *testing.T) {
	c := GPUCluster(8)
	if len(c.Nodes) != 8 || c.TotalGPUs() != 8 {
		t.Fatalf("cluster = %+v", c)
	}
	for _, n := range c.Nodes {
		if len(n.GPUs) != 1 || n.GPUs[0].Name != "GTX 480" {
			t.Fatalf("node = %+v", n)
		}
	}
	mustPanic(t, func() { GPUCluster(0) })
}

func TestMixedGPUCluster(t *testing.T) {
	c := MixedGPUCluster(3, 2)
	if len(c.Nodes) != 5 || c.TotalGPUs() != 5 {
		t.Fatalf("mixed cluster = %+v", c)
	}
	for i, n := range c.Nodes {
		want := "GTX 480"
		if i >= 3 {
			want = "Tesla S2050"
		}
		if n.GPUs[0].Name != want {
			t.Fatalf("node %d carries %q, want %q", i, n.GPUs[0].Name, want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("mixed preset rejected: %v", err)
	}
	mustPanic(t, func() { MixedGPUCluster(0, 0) })
	mustPanic(t, func() { MixedGPUCluster(-1, 2) })
}

func TestPresetsValidate(t *testing.T) {
	for _, c := range []ClusterSpec{MultiGPUSystem(4), GPUCluster(8), MixedGPUCluster(2, 2)} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	break1 := func(f func(c *ClusterSpec)) ClusterSpec {
		c := MixedGPUCluster(1, 1)
		f(&c)
		return c
	}
	cases := []struct {
		name string
		c    ClusterSpec
		want string
	}{
		{"no nodes", ClusterSpec{Name: "empty", Net: qdrInfiniband()}, "no nodes"},
		{"zero net bandwidth", break1(func(c *ClusterSpec) { c.Net.Bandwidth = 0 }), "bandwidth"},
		{"negative net latency", break1(func(c *ClusterSpec) { c.Net.Latency = -1 }), "latency"},
		{"zero pcie", break1(func(c *ClusterSpec) { c.Nodes[1].GPUs[0].PCIeBandwidth = 0 }), "PCIe"},
		{"zero mem bandwidth", break1(func(c *ClusterSpec) { c.Nodes[0].GPUs[0].MemBandwidth = 0 }), "memory bandwidth"},
		{"zero gpu mem", break1(func(c *ClusterSpec) { c.Nodes[0].GPUs[0].MemBytes = 0 }), "device memory"},
		{"zero host mem", break1(func(c *ClusterSpec) { c.Nodes[0].HostMemBytes = 0 }), "host memory"},
		{"zero pinned", break1(func(c *ClusterSpec) { c.Nodes[0].GPUs[0].PinnedCopyBandwidth = 0 }), "pinned-copy"},
		{"zero host power", break1(func(c *ClusterSpec) { c.Nodes[0].HostPower = PowerDraw{} }), "idle power"},
		{"zero gpu power", break1(func(c *ClusterSpec) { c.Nodes[1].GPUs[0].Power.IdleWatts = 0 }), "idle power"},
		{"busy below idle", break1(func(c *ClusterSpec) { c.Nodes[0].GPUs[0].Power.BusyWatts = 1 }), "below idle"},
		{"negative cpu rate", break1(func(c *ClusterSpec) { c.Nodes[0].CPUFlops = -1 }), "CPU rate"},
		{"bad efficiency", break1(func(c *ClusterSpec) { c.Nodes[0].GPUs[0].KernelEfficiency = 1.5 }), "efficiency"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a broken spec", tc.name)
		}
		if !containsStr(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestIdleWatts(t *testing.T) {
	c := MixedGPUCluster(1, 1)
	want := 2*ClusterNode().HostPower.IdleWatts + GTX480().Power.IdleWatts + TeslaS2050().Power.IdleWatts
	if got := c.IdleWatts(); got != want {
		t.Fatalf("IdleWatts = %v, want %v", got, want)
	}
	if d := GTX480().Power.Delta(); d != 250-47 {
		t.Fatalf("GTX480 busy delta = %v", d)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
