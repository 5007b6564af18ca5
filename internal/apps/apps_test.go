package apps

import (
	"fmt"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
)

func TestStreamVariantsMatchSerial(t *testing.T) {
	p := StreamParams{N: 1024, BSize: 128, NTimes: 3}
	want := fmt.Sprintf("a-sum=%.1f", StreamSerialASum(p.N, p.NTimes))

	cudaRes, err := StreamCUDA(hw.GTX480(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	if cudaRes.Check != want {
		t.Fatalf("cuda check = %s, want %s", cudaRes.Check, want)
	}

	mpiRes, err := StreamMPICUDA(smallCluster(2, 1), p, true)
	if err != nil {
		t.Fatal(err)
	}
	if mpiRes.Check != want {
		t.Fatalf("mpi check = %s, want %s", mpiRes.Check, want)
	}

	for _, nodes := range []int{1, 2} {
		cfg := ompss.Config{Cluster: smallCluster(nodes, 1), Validate: true, SlaveToSlave: true}
		res, err := StreamOmpSs(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Check != want {
			t.Fatalf("ompss %d-node check = %s, want %s", nodes, res.Check, want)
		}
		if res.Metric <= 0 {
			t.Fatalf("metric = %v", res.Metric)
		}
	}
}

func TestStreamWriteBackBeatsNoCache(t *testing.T) {
	p := StreamParams{N: 1 << 16, BSize: 1 << 13, NTimes: 5}
	run := func(policy string) float64 {
		cfg := ompss.Config{Cluster: hw.MultiGPUSystem(1)}
		switch policy {
		case "wb":
			cfg.CachePolicy = ompss.WriteBack
		case "nocache":
			cfg.CachePolicy = ompss.NoCache
		}
		res, err := StreamOmpSs(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metric
	}
	wb, nc := run("wb"), run("nocache")
	if wb <= nc {
		t.Fatalf("write-back (%.1f GB/s) should beat no-cache (%.1f GB/s)", wb, nc)
	}
}

func TestPerlinVariantsMatchSerial(t *testing.T) {
	p := PerlinParams{Width: 64, Height: 64, RowsPerBlock: 16, Steps: 3}
	want := fmt.Sprintf("img-sum=%.3f", PerlinSerialSum(p))
	for _, flush := range []bool{false, true} {
		p := p
		p.Flush = flush
		cudaRes, err := PerlinCUDA(hw.GTX480(), p, true)
		if err != nil {
			t.Fatal(err)
		}
		if cudaRes.Check != want {
			t.Fatalf("cuda flush=%v check = %s, want %s", flush, cudaRes.Check, want)
		}
		mpiRes, err := PerlinMPICUDA(smallCluster(2, 1), p, true)
		if err != nil {
			t.Fatal(err)
		}
		if mpiRes.Check != want {
			t.Fatalf("mpi flush=%v check = %s, want %s", flush, mpiRes.Check, want)
		}
		cfg := ompss.Config{Cluster: smallCluster(2, 1), Validate: true, SlaveToSlave: true}
		res, err := PerlinOmpSs(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Check != want {
			t.Fatalf("ompss flush=%v check = %s, want %s", flush, res.Check, want)
		}
	}
}

func TestPerlinNoFlushFasterThanFlush(t *testing.T) {
	p := PerlinParams{Width: 1024, Height: 1024, RowsPerBlock: 64, Steps: 10}
	run := func(flush bool) float64 {
		p := p
		p.Flush = flush
		cfg := ompss.Config{Cluster: hw.MultiGPUSystem(2)}
		res, err := PerlinOmpSs(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metric
	}
	noflush, flush := run(false), run(true)
	if noflush <= flush {
		t.Fatalf("NoFlush (%.1f) should beat Flush (%.1f) Mpixels/s", noflush, flush)
	}
}

func TestNBodyVariantsMatchSerial(t *testing.T) {
	p := NBodyParams{N: 64, Blocks: 4, Iters: 3}
	want := fmt.Sprintf("pos-sum=%.3f", NBodySerialSum(p))

	cudaRes, err := NBodyCUDA(hw.GTX480(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	if cudaRes.Check != want {
		t.Fatalf("cuda check = %s, want %s", cudaRes.Check, want)
	}

	mpiP := p
	mpiP.Blocks = 2 // one block per rank
	mpiRes, err := NBodyMPICUDA(smallCluster(2, 1), mpiP, true)
	if err != nil {
		t.Fatal(err)
	}
	if mpiRes.Check != want {
		t.Fatalf("mpi check = %s, want %s", mpiRes.Check, want)
	}

	for _, nodes := range []int{1, 2} {
		cfg := ompss.Config{Cluster: smallCluster(nodes, 1), Validate: true, SlaveToSlave: true}
		res, err := NBodyOmpSs(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Check != want {
			t.Fatalf("ompss %d-node check = %s, want %s", nodes, res.Check, want)
		}
	}
}

func TestCUDAVariantPerformanceSanity(t *testing.T) {
	// The single-GPU CUDA matmul should land near the device's effective
	// sgemm rate (the roofline the cost model encodes).
	res, err := MatmulCUDA(hw.GTX480(), MatmulParams{N: 4096, BS: 1024}, false)
	if err != nil {
		t.Fatal(err)
	}
	eff := hw.GTX480().EffectiveFlops() / 1e9
	if res.Metric < 0.7*eff || res.Metric > eff {
		t.Fatalf("CUDA matmul = %.0f GFLOPS, want within (%.0f, %.0f)", res.Metric, 0.7*eff, eff)
	}
	// And STREAM should approach device memory bandwidth.
	sres, err := StreamCUDA(hw.GTX480(), StreamParams{N: 1 << 22, BSize: 1 << 19, NTimes: 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	bw := hw.GTX480().MemBandwidth / 1e9
	if sres.Metric < 0.5*bw || sres.Metric > bw {
		t.Fatalf("CUDA STREAM = %.0f GB/s, want within (%.0f, %.0f)", sres.Metric, 0.5*bw, bw)
	}
}

func TestOmpSsRuntimeOverheadIsBounded(t *testing.T) {
	// Same single-GPU workload through the full runtime vs the raw CUDA
	// driver: the runtime must stay within 25% (its entire value
	// proposition is near-zero cost for automatic data movement).
	p := MatmulParams{N: 4096, BS: 1024}
	raw, err := MatmulCUDA(hw.GTX480(), p, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ompss.Config{Cluster: smallCluster(1, 1)}
	rt, err2 := MatmulOmpSs(cfg, p)
	if err2 != nil {
		t.Fatal(err2)
	}
	if rt.Metric < 0.75*raw.Metric {
		t.Fatalf("OmpSs %.0f GFLOPS vs raw CUDA %.0f: overhead too high", rt.Metric, raw.Metric)
	}
}
