package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The harness measures the product from outside. An import of the
// product's module would make every refactor of its internals edit the
// benchmark that judges it.
func TestHarnessImportsOnlyTheStandardLibrary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
				t.Errorf("%s imports %s: standard library only", name, path)
			}
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the harness prints. They must say the same thing.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var want []workload
	for _, w := range workloads {
		want = append(want, workload{Name: w.Name, Why: w.Why})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.Workloads, want) {
		t.Errorf("workloads:\n got %+v\nwant %+v", spec.Workloads, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", spec.PerLayer, perLayer())
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(spec.PerLayer), len(spec.EndToEnd))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
