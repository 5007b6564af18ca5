package apps

import (
	"fmt"
	"math"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/kernels"
)

// heatRodSum is the whole-rod sweep HeatSerialSum's tiles are checked
// against: two N-cell rods, every cell each step, summed in cell order. It
// keeps its own loop rather than sharing kernels.JacobiStep's or the tiled
// one's, so that one arithmetic slip cannot pass both sides.
func heatRodSum(p HeatParams) float64 {
	cur := make([]float64, p.N)
	for i := range cur {
		cur[i] = kernels.HeatCell(i)
	}
	nxt := make([]float64, p.N)
	for s := 0; s < p.Steps; s++ {
		nxt[0] = cur[0]
		nxt[p.N-1] = cur[p.N-1]
		for i := 1; i < p.N-1; i++ {
			nxt[i] = cur[i] + heatAlpha*(cur[i-1]-2*cur[i]+cur[i+1])
		}
		cur, nxt = nxt, cur
	}
	var sum float64
	for _, v := range cur {
		sum += v
	}
	return sum
}

// The tiled reference must give the whole-rod sweep's sum bit for bit: on
// a rod shorter than a tile's halo, one shorter than a tile, one that
// ends mid-tile, more steps than a tile, and the experiment's quick and
// full sizes at 8 nodes.
func TestHeatSerialSumMatchesRodSweep(t *testing.T) {
	for _, p := range []HeatParams{
		{N: 1, BSize: 1, Steps: 3},
		{N: 3, BSize: 3, Steps: 2},
		{N: 1000, BSize: 1000, Steps: 7},
		{N: 3*heatTile + 1234, BSize: 2, Steps: 9},
		{N: 5 * heatTile, BSize: heatTile, Steps: heatTile + 17},
		{N: 8 * (64 << 10), BSize: 8 << 10, Steps: 4},
		{N: 8 * (1 << 20), BSize: 128 << 10, Steps: 8},
	} {
		got, want := HeatSerialSum(p), heatRodSum(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: tiled sum %v, rod sweep %v", p, got, want)
		}
	}
}

// BenchmarkHeatSerial times the serial reference at the heat experiment's
// full 8-node size.
func BenchmarkHeatSerial(b *testing.B) {
	p := HeatParams{N: 8 * (1 << 20), BSize: 128 << 10, Steps: 8}
	for range b.N {
		HeatSerialSum(p)
	}
}

// The stencil's halo reads partially overlap the neighbouring blocks, so
// a correct checksum here exercises the fragment-based dependence and
// coherence tracking across every machine shape, with inter-node data
// master-routed (the paper's default) and slave-to-slave. The 32-block row
// is a shape where an overlapping fetch lands a halo fragment on
// the master host while an earlier fetch is still pulling its own: the
// master is then a holder like any other and must not be asked to send to
// itself.
func TestHeatOmpSsMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		nodes, gpus int
		p           HeatParams
	}{
		{1, 1, HeatParams{N: 4096, BSize: 512, Steps: 5}},
		{1, 2, HeatParams{N: 4096, BSize: 512, Steps: 5}},
		{2, 1, HeatParams{N: 4096, BSize: 512, Steps: 5}},
		{2, 2, HeatParams{N: 4096, BSize: 512, Steps: 5}},
		{4, 1, HeatParams{N: 4096, BSize: 512, Steps: 5}},
		{4, 1, HeatParams{N: 8192, BSize: 256, Steps: 5}},
	} {
		want := fmt.Sprintf("sum=%.6f", HeatSerialSum(tc.p))
		for _, s2s := range []bool{false, true} {
			name := fmt.Sprintf("%dx%d/%dblocks/s2s=%v", tc.nodes, tc.gpus, tc.p.N/tc.p.BSize, s2s)
			cfg := ompss.Config{
				Cluster:          smallCluster(tc.nodes, tc.gpus),
				Validate:         true,
				SlaveToSlave:     s2s,
				NonBlockingCache: true,
			}
			res, err := HeatOmpSs(cfg, tc.p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Check != want {
				t.Fatalf("%s: check = %s, want %s", name, res.Check, want)
			}
			if res.Metric <= 0 {
				t.Fatalf("%s: metric = %v", name, res.Metric)
			}
			again, err := HeatOmpSs(cfg, tc.p)
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			if a, b := fmt.Sprintf("%+v", res.Stats), fmt.Sprintf("%+v", again.Stats); a != b {
				t.Fatalf("%s: stats diverged across identical runs:\n%s\nvs\n%s", name, a, b)
			}
		}
	}
}

func TestHeatOmpSsMatchesSerialAcrossCachePolicies(t *testing.T) {
	p := HeatParams{N: 2048, BSize: 256, Steps: 4}
	want := fmt.Sprintf("sum=%.6f", HeatSerialSum(p))
	for _, policy := range []ompss.CachePolicy{ompss.NoCache, ompss.WriteThrough, ompss.WriteBack} {
		cfg := ompss.Config{
			Cluster:     smallCluster(1, 2),
			Validate:    true,
			CachePolicy: policy,
		}
		res, err := HeatOmpSs(cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Check != want {
			t.Fatalf("%s check = %s, want %s", policy, res.Check, want)
		}
	}
}
