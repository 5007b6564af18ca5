//go:build !race

package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/bsc-repro/ompss/internal/faults"
)

// TestQuickGoldens holds every deterministic quick experiment to the CSV
// bytes checked in under testdata/quick, so a change that claims to keep
// the simulation's event order — a process turned into an event chain, a
// recycled record — proves it here instead of by a hand-run cmp. The
// -armed files are fig11-13 with the resilience machinery armed and no
// fault injected: the rows the serving layer's cold path computes. table1
// is left out (its rows count lines of this tree), and so is resilience
// (TestResilienceShapes runs it).
//
// There is no update flag: on a mismatch the test writes what it got to a
// directory it leaves behind and prints the cp command that re-records it.
// The race detector would only slow it several times over (the harness's
// own race tests run the same grid code), hence the build tag.
func TestQuickGoldens(t *testing.T) {
	type golden struct {
		file, experiment string
		armed            bool
	}
	var files []golden
	for _, x := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"heat", "weakscale", "powercap", "ablations"} {
		files = append(files, golden{x + ".csv", x, false})
	}
	for _, x := range []string{"fig11", "fig12", "fig13"} {
		files = append(files, golden{x + "-armed.csv", x, true})
	}
	var outDir string
	for _, g := range files {
		o := Options{Quick: true, Parallel: 2}
		if g.armed {
			o.Faults = &faults.Plan{Seed: 1}
		}
		res, err := Execute(g.experiment, o)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "quick", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(res.CSV, want) {
			continue
		}
		if outDir == "" {
			if outDir, err = os.MkdirTemp("", "quickgoldens"); err != nil {
				t.Fatal(err)
			}
		}
		got := filepath.Join(outDir, g.file)
		if err := os.WriteFile(got, res.CSV, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: CSV differs from testdata/quick/%s (%s); if the change is meant, re-record from the repository root:\n\t%s",
			g.file, g.file, firstDiff(want, res.CSV), "cp "+got+" internal/bench/testdata/quick/"+g.file)
	}
}

// firstDiff names the first line on which two CSVs differ.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl, gl)
		}
	}
	return "identical lines"
}
