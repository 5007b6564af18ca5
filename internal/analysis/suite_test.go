package analysis_test

import (
	"testing"

	"github.com/bsc-repro/ompss/internal/analysis"
)

// TestSuiteCleanOnTree is the tier-1 gate in test form: the full
// analyzer suite over the real module must report no unsuppressed
// finding. It also exercises LoadModule end to end (module walking,
// stdlib imports via export data, recursive in-module resolution).
func TestSuiteCleanOnTree(t *testing.T) {
	pkgs, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadModule found only %d packages; the walker lost part of the tree", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Unsuppressed(diags) {
		t.Errorf("%s", d)
	}
	// Every suppressed record must carry the kind that silenced it, or
	// the -json audit trail cannot say which escape hatch was used.
	for _, d := range diags {
		if d.Suppressed && d.Kind == "" {
			t.Errorf("suppressed finding with no kind: %s", d)
		}
	}
}

// TestSuiteRoster pins the suite composition: all five passes, in
// registration order. A pass silently falling out of Analyzers() would
// otherwise leave its suppression kind dangling and its invariants
// unenforced.
func TestSuiteRoster(t *testing.T) {
	want := []string{
		"detwallclock",
		"detmaprange",
		"simblocking",
		"tracepair",
		"ompssdirective",
	}
	got := analysis.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}
