package apps

import (
	"fmt"
	"testing"

	"github.com/bsc-repro/ompss"
)

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
				Steal:            true,
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
