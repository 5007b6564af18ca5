package apps

import (
	"fmt"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/sched"
)

// The strongest correctness property of the runtime: every configuration —
// cache policy, scheduler, machine shape, overlap/prefetch/presend — must
// compute byte-identical results. These sweeps run each application at a
// small size across the whole configuration grid and compare checksums
// against the serial reference.

type sweepConfig struct {
	label string
	cfg   ompss.Config
}

func sweepConfigs(t *testing.T) []sweepConfig {
	t.Helper()
	var out []sweepConfig
	for _, pol := range []coherence.Policy{coherence.NoCache, coherence.WriteThrough, coherence.WriteBack} {
		for _, sc := range []sched.Policy{sched.BreadthFirst, sched.Dependencies, sched.Affinity} {
			for _, machine := range []struct {
				label string
				spec  func() ompssCluster
			}{
				{"2gpu", func() ompssCluster { return smallCluster(1, 2) }},
				{"3node", func() ompssCluster { return smallCluster(3, 1) }},
			} {
				cfg := ompss.Config{
					Cluster:          machine.spec(),
					Scheduler:        sc,
					CachePolicy:      pol,
					NonBlockingCache: true,
					SlaveToSlave:     true,
					Presend:          1,
					Validate:         true,
				}
				out = append(out, sweepConfig{
					label: fmt.Sprintf("%s-%s-%s", machine.label, pol, sc),
					cfg:   cfg,
				})
			}
		}
	}
	// A few feature combinations on top of the grid.
	extra := ompss.Config{Cluster: smallCluster(2, 2), Overlap: true, Prefetch: true,
		NonBlockingCache: true, SlaveToSlave: true, Presend: 2, Validate: true}
	out = append(out, sweepConfig{label: "overlap-prefetch", cfg: extra})
	blocking := ompss.Config{Cluster: smallCluster(1, 2), Validate: true}
	out = append(out, sweepConfig{label: "blocking-cache", cfg: blocking})
	return out
}

func TestMatmulIdenticalAcrossAllConfigs(t *testing.T) {
	p := MatmulParams{N: 64, BS: 16, Init: InitSMP}
	want := fmt.Sprintf("checksum=%.3f", serialChecksum(p))
	for _, sc := range sweepConfigs(t) {
		sc := sc
		t.Run(sc.label, func(t *testing.T) {
			res, err := MatmulOmpSs(sc.cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Check != want {
				t.Fatalf("check = %s, want %s", res.Check, want)
			}
		})
	}
}

func TestStreamIdenticalAcrossAllConfigs(t *testing.T) {
	p := StreamParams{N: 512, BSize: 64, NTimes: 2}
	want := fmt.Sprintf("a-sum=%.1f", StreamSerialASum(p.N, p.NTimes))
	for _, sc := range sweepConfigs(t) {
		sc := sc
		t.Run(sc.label, func(t *testing.T) {
			res, err := StreamOmpSs(sc.cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Check != want {
				t.Fatalf("check = %s, want %s", res.Check, want)
			}
		})
	}
}

func TestNBodyIdenticalAcrossAllConfigs(t *testing.T) {
	p := NBodyParams{N: 48, Blocks: 4, Iters: 2}
	want := fmt.Sprintf("pos-sum=%.3f", NBodySerialSum(p))
	for _, sc := range sweepConfigs(t) {
		sc := sc
		t.Run(sc.label, func(t *testing.T) {
			res, err := NBodyOmpSs(sc.cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Check != want {
				t.Fatalf("check = %s, want %s", res.Check, want)
			}
		})
	}
}

func TestPerlinIdenticalAcrossAllConfigs(t *testing.T) {
	for _, flush := range []bool{false, true} {
		p := PerlinParams{Width: 32, Height: 32, RowsPerBlock: 8, Steps: 2, Flush: flush}
		want := fmt.Sprintf("img-sum=%.3f", PerlinSerialSum(p))
		for _, sc := range sweepConfigs(t) {
			sc := sc
			t.Run(fmt.Sprintf("%s-flush=%v", sc.label, flush), func(t *testing.T) {
				res, err := PerlinOmpSs(sc.cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Check != want {
					t.Fatalf("check = %s, want %s", res.Check, want)
				}
			})
		}
	}
}
