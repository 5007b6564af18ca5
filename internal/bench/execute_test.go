package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestExecuteDeterministicBytes: two executions of the same deterministic
// experiment produce byte-identical CSV — the property the serving
// layer's cache correctness rests on.
func TestExecuteDeterministicBytes(t *testing.T) {
	a, err := Execute("table1", Options{Quick: true})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	b, err := Execute("table1", Options{Quick: true})
	if err != nil {
		t.Fatalf("execute again: %v", err)
	}
	if len(a.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !bytes.Equal(a.CSV, b.CSV) {
		t.Fatalf("CSV differs between runs:\n%s\nvs\n%s", a.CSV, b.CSV)
	}
	if !strings.HasPrefix(string(a.CSV), "experiment,config,value,unit\n") {
		t.Fatalf("CSV missing the CLI header: %s", a.CSV)
	}
}

// TestExecuteCSVMatchesEncode: ExecResult.CSV is exactly EncodeCSV of its
// rows (the encoding the CLI shares).
func TestExecuteCSVMatchesEncode(t *testing.T) {
	res, err := Execute("table1", Options{Quick: true})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeCSV(&buf, res.Rows); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(res.CSV, buf.Bytes()) {
		t.Fatalf("ExecResult.CSV diverges from EncodeCSV")
	}
}

// TestExecuteGridPointFilter: a grid_point request returns exactly the
// matching rows, and a label matching nothing is an error rather than an
// empty (and cacheable!) result.
func TestExecuteGridPointFilter(t *testing.T) {
	full, err := Execute("table1", Options{Quick: true})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want := full.Rows[len(full.Rows)-1].Config
	one, err := Execute("table1", Options{Quick: true, GridPoint: want})
	if err != nil {
		t.Fatalf("execute grid point: %v", err)
	}
	if len(one.Rows) == 0 {
		t.Fatal("no rows for grid point")
	}
	for _, r := range one.Rows {
		if r.Config != want {
			t.Fatalf("row %q leaked through grid point %q", r.Config, want)
		}
	}
	if _, err := Execute("table1", Options{Quick: true, GridPoint: "no such point"}); err == nil {
		t.Fatal("bogus grid point accepted")
	}
}

// TestExecuteUnknownExperiment: the registry boundary errors cleanly.
func TestExecuteUnknownExperiment(t *testing.T) {
	if _, err := Execute("nope", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExecuteOnPointProgress: the per-point callback reports every grid
// point exactly once, in completion order, with a consistent total.
func TestExecuteOnPointProgress(t *testing.T) {
	var points []PointDone
	res, err := Execute("heat", Options{Quick: true, OnPoint: func(p PointDone) {
		points = append(points, p)
	}})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no progress callbacks")
	}
	total := points[0].Total
	if len(points) != total {
		t.Fatalf("%d callbacks for total %d", len(points), total)
	}
	seen := make(map[int]bool)
	for _, p := range points {
		if p.Experiment != "heat" {
			t.Fatalf("point experiment %q", p.Experiment)
		}
		if p.Total != total {
			t.Fatalf("total changed mid-run: %d vs %d", p.Total, total)
		}
		if p.Index < 0 || p.Index >= total || seen[p.Index] {
			t.Fatalf("bad or duplicate index %d", p.Index)
		}
		seen[p.Index] = true
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}
