package ompss_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/bsc-repro/ompss/internal/bench"
)

// TestTable1MatchesExperiments: the Table I of EXPERIMENTS.md is what
// `ompss-bench -experiment table1` computes, every cell at its printed
// rounding — the line counts, and each increase over serial to 0.1 %.
func TestTable1MatchesExperiments(t *testing.T) {
	e, _ := bench.ByName("table1")
	rows, err := e.Run(bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{"matmul": "Matmul", "stream": "STREAM", "perlin": "Perlin", "nbody": "N-Body"}
	var want []string
	for i := 0; i+4 <= len(rows); i += 4 { // serial, cuda, mpi+cuda, ompss per benchmark
		app, _, _ := strings.Cut(rows[i].Config, " ")
		serial := rows[i].Value
		cells := []string{names[app], fmt.Sprintf("%.0f", serial)}
		for _, r := range rows[i+1 : i+4] {
			pct := strings.Replace(fmt.Sprintf("%+.1f%%", 100*(r.Value-serial)/serial), "-", "−", 1)
			cells = append(cells, fmt.Sprintf("%.0f (%s)", r.Value, pct))
		}
		want = append(want, "| "+strings.Join(cells, " | ")+" |")
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Table I")
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| ") && !strings.HasPrefix(line, "| benchmark ") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("EXPERIMENTS.md's Table I rows:\n%s\ntable1 computes:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
