package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/bsc-repro/ompss"
)

// TestFig10TraceBitIdentical runs the traced fig10 grid twice and demands
// byte-identical Perfetto output and critical-path reports, plus identical
// rows: tracing must neither perturb the simulation nor be nondeterministic
// itself.
func TestFig10TraceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig10 grid twice")
	}
	var perfettos [][]byte
	var reports, rowDumps []string
	for i := 0; i < 2; i++ {
		rec := ompss.NewTrace()
		rows, err := fig10(Options{Quick: true, Parallel: -1, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatal("fig10 trace point recorded no spans")
		}
		if len(rec.Edges()) == 0 {
			t.Fatal("fig10 trace point recorded no dependence arcs")
		}
		var pb bytes.Buffer
		if err := rec.WritePerfetto(&pb); err != nil {
			t.Fatal(err)
		}
		perfettos = append(perfettos, pb.Bytes())
		var rb bytes.Buffer
		if err := rec.CriticalPath(5).WriteText(&rb); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rb.String())
		rowDumps = append(rowDumps, fmt.Sprintf("%+v", rows))
	}
	if !bytes.Equal(perfettos[0], perfettos[1]) {
		t.Error("perfetto output differs between identical traced runs")
	}
	if reports[0] != reports[1] {
		t.Errorf("critical-path reports differ:\n%s\nvs\n%s", reports[0], reports[1])
	}
	if rowDumps[0] != rowDumps[1] {
		t.Error("fig10 rows differ between identical traced runs")
	}
	for _, want := range []string{"makespan", "compute", "transfer", "idle", "slack"} {
		if !strings.Contains(reports[0], want) {
			t.Errorf("critical-path report lacks %q:\n%s", want, reports[0])
		}
	}
}
