package main

import (
	"os"
	"testing"
)

func bucketsOf(t *testing.T, fixture string) (map[string]float64, float64, float64) {
	t.Helper()
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, sum, declared, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return b, sum, declared
}

func TestParseTracesCPU(t *testing.T) {
	got, sum, declared := bucketsOf(t, "testdata/traces_cpu.txt")
	want := map[string]float64{
		"sim":              10e6, // innermost module frame wins over the runtime leaf
		"detmap":           20e6, // generic instantiation: prefix of the function, not of its type arguments
		"depgraph":         30e6, // slices.* frames carry our paths inside type arguments only
		"go_runtime.gc":    5e6,  // no module frame; the label line before the sample is skipped
		"go_runtime.sched": 15e6,
		"go_runtime.other": 7e6,
		"apps":             40e6, // the root package is not a layer; the next module frame is
		"other":            23e6, // internal/hw is module code outside the listed layers
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want exactly %v", got, want)
	}
	if sum != 150e6 || declared != 150e6 {
		t.Errorf("sum %v declared %v: buckets must add up to the profile total", sum, declared)
	}
}

func TestStackless(t *testing.T) {
	for _, c := range []struct {
		sum, declared, rest float64
		ok                  bool
	}{
		{150e6, 150e6, 0, true},
		{0, 0, 0, true},
		{110e6, 120e6, 10e6, true}, // one sample in twelve recorded without a stack
		{5.8e9, 6e9, 0.2e9, true},  // 3.3% of a long profile
		{80e6, 120e6, 0, false},    // four samples of twelve lost: the rule, not the profiler
		{5.6e9, 6e9, 0, false},     // 6.7% of a long profile
		{130e6, 120e6, 0, false},   // more than the profile holds
		{10e6, 0, 0, false},        // samples under a header that declares none
	} {
		rest, err := stackless(c.sum, c.declared)
		if rest != c.rest || (err == nil) != c.ok {
			t.Errorf("stackless(%v, %v) = %v, %v; want %v, ok=%v", c.sum, c.declared, rest, err, c.rest, c.ok)
		}
	}
}

func TestParseTracesHeap(t *testing.T) {
	got, sum, declared := bucketsOf(t, "testdata/traces_heap.txt")
	want := map[string]float64{"netsim": 524328, "metrics": 1048576, "go_runtime.other": 2097152}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) || sum != 524328+1048576+2097152 || declared != 0 {
		t.Errorf("buckets %v sum %v declared %v", got, sum, declared)
	}
}

func TestLayerOfFrame(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/bsc-repro/ompss/internal/sim.(*Engine).Run":   "sim",
		"github.com/bsc-repro/ompss/internal/analysis/passes.Run": "other",
		"github.com/bsc-repro/ompss/cmd/ompss-bench.helper":       "other",
		"sort.Slice": "",
		"slices.SortFunc[github.com/bsc-repro/ompss/internal/sim.Event]":   "",
		"github.com/bsc-repro/ompss.(*Runtime).Run":                        "",
		"github.com/bsc-repro/ompss/internal/detmap.Keys[go.shape.string]": "detmap",
		"github.com/bsc-repro/ompss/internal/coherence.(*Cache).MakeSpace": "coherence",
		"github.com/bsc-repro/ompss/internal/serve.(*Server).handleSubmit": "serve",
	} {
		got, ok := layerOfFrame(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOfFrame(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
