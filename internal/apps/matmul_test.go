package apps

import (
	"fmt"
	"math"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
)

// smallCluster is a fast machine for validation tests.
func smallCluster(nodes, gpusPerNode int) hw.ClusterSpec {
	spec := hw.GPUCluster(max(nodes, 1))
	spec.Nodes = spec.Nodes[:nodes]
	for i := range spec.Nodes {
		gpus := make([]hw.GPUSpec, gpusPerNode)
		for g := range gpus {
			gpus[g] = hw.GTX480()
		}
		spec.Nodes[i].GPUs = gpus
	}
	return spec
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// serialChecksum computes the reference checksum for MatmulParams.
func serialChecksum(p MatmulParams) float64 {
	var sum float64
	for _, tile := range MatmulSerialOut(p.N, p.BS) {
		for _, v := range tile {
			sum += float64(v)
		}
	}
	return sum
}

// The second size's tiles are 21 wide, so amd64's Sgemm runs its
// sixteen-, four- and one-lane loops inside a validated run, against
// MatmulSerialOut's own loop.
func TestMatmulOmpSsMatchesSerial(t *testing.T) {
	for _, size := range []struct {
		prefix string
		p      MatmulParams
	}{{"", MatmulParams{N: 64, BS: 16}}, {"bs21-", MatmulParams{N: 42, BS: 21}}} {
		want := serialChecksum(size.p)
		for _, init := range []InitMode{InitSeq, InitSMP, InitGPU} {
			for _, nodes := range []int{1, 2} {
				init, nodes := init, nodes
				t.Run(fmt.Sprintf("%s%s-%dnode", size.prefix, init, nodes), func(t *testing.T) {
					cfg := ompss.Config{
						Cluster:      smallCluster(nodes, 1),
						Validate:     true,
						SlaveToSlave: true,
					}
					p := size.p
					p.Init = init
					res, err := MatmulOmpSs(cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprintf("checksum=%.3f", want); res.Check != got {
						t.Fatalf("check = %s, want %s", res.Check, got)
					}
					if res.Metric <= 0 || math.IsInf(res.Metric, 0) {
						t.Fatalf("metric = %v", res.Metric)
					}
				})
			}
		}
	}
}

func TestMatmulCUDAMatchesSerial(t *testing.T) {
	p := MatmulParams{N: 64, BS: 16}
	res, err := MatmulCUDA(hw.GTX480(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("checksum=%.3f", serialChecksum(p))
	if res.Check != want {
		t.Fatalf("check = %s, want %s", res.Check, want)
	}
}

func TestMatmulMPICUDAMatchesSerial(t *testing.T) {
	p := MatmulParams{N: 64, BS: 16}
	want := fmt.Sprintf("checksum=%.3f", serialChecksum(p))
	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			res, err := MatmulMPICUDA(smallCluster(nodes, 1), p, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Check != want {
				t.Fatalf("check = %s, want %s", res.Check, want)
			}
		})
	}
}

func TestMatmulVariantsAgreeWithEachOther(t *testing.T) {
	p := MatmulParams{N: 48, BS: 12}
	cuda, err := MatmulCUDA(hw.GTX480(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := MatmulMPICUDA(smallCluster(2, 1), p, true)
	if err != nil {
		t.Fatal(err)
	}
	ompssRes, err := MatmulOmpSs(ompss.Config{Cluster: smallCluster(1, 2), Validate: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	if cuda.Check != mpi.Check || mpi.Check != ompssRes.Check {
		t.Fatalf("variants disagree: cuda=%s mpi=%s ompss=%s", cuda.Check, mpi.Check, ompssRes.Check)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 6: {2, 3}, 9: {3, 3}}
	for n, want := range cases {
		pr, pc := gridShape(n)
		if pr != want[0] || pc != want[1] {
			t.Errorf("gridShape(%d) = %dx%d, want %dx%d", n, pr, pc, want[0], want[1])
		}
	}
}
