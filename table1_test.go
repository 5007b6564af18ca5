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

// TestFigureTablesMatchGoldens: every cell of the Figure 5–8 tables of
// EXPERIMENTS.md is its golden CSV's value at the cell's own printed
// rounding. config maps a row label and a column header, with "N GPU"
// spelled "Ngpu" and "no-cache" spelled "nocache", to the golden's config.
func TestFigureTablesMatchGoldens(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	norm := strings.NewReplacer(" GPU", "gpu", "no-cache", "nocache", " (default sched)", "")
	for _, fig := range []struct {
		name   string
		config func(row, col string) string
	}{
		{"5", func(row, col string) string { return row + " " + col }},
		{"6", func(row, col string) string { return row + " " + col + " default" }},
		{"7", func(row, col string) string { return strings.Replace(row, " wb", " "+col+" wb", 1) }},
		{"8", func(row, col string) string { return row + " " + col }},
	} {
		csv, err := os.ReadFile("benchmark/golden/fig" + fig.name + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		golden := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(csv)), "\n")[1:] {
			f := strings.Split(line, ",")
			var v float64
			fmt.Sscan(f[2], &v)
			golden[f[1]] = v
		}
		_, section, _ := strings.Cut(string(doc), "\n## Figure "+fig.name+" ")
		section, _, _ = strings.Cut(section, "\n## ")
		var cols []string
		cells := 0
		for _, line := range strings.Split(section, "\n") {
			if !strings.HasPrefix(line, "| ") {
				continue
			}
			f := strings.Split(strings.Trim(line, "| "), " | ")
			if f[0] == "config" {
				cols = f[1:]
				continue
			}
			for i, cell := range f[1:] {
				config := fig.config(norm.Replace(f[0]), norm.Replace(cols[i]))
				v, ok := golden[config]
				decimals := 0
				if _, frac, found := strings.Cut(cell, "."); found {
					decimals = len(frac)
				}
				if want := fmt.Sprintf("%.*f", decimals, v); !ok || cell != want {
					t.Errorf("Figure %s, %s / %s: EXPERIMENTS.md says %s, golden %q gives %s (found %v)",
						fig.name, f[0], cols[i], cell, config, want, ok)
				}
				cells++
			}
		}
		if cells == 0 {
			t.Errorf("Figure %s: no table cells found", fig.name)
		}
	}
}
