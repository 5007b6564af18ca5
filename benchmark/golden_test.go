package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRows(t *testing.T) {
	want := []row{{"fig5", "1gpu wt bf", "492.57293711472744", "GFLOPS"}, {"fig5", "2gpu wt bf", "900.5", "GFLOPS"}}
	same := append([]row(nil), want...)
	if a, f, _ := compareRows(same, want, false); a != 2 || f != 0 {
		t.Errorf("identical rows: attempted %d failed %d", a, f)
	}

	lastDigit := append([]row(nil), want...)
	lastDigit[0].Value = "492.57293711472745"
	if a, f, first := compareRows(lastDigit, want, false); a != 2 || f != 1 || !strings.Contains(first, "row 1") {
		t.Errorf("last digit changed: attempted %d failed %d %q", a, f, first)
	}
	if a, f, _ := compareRows(want[:1], want, false); a != 2 || f != 1 {
		t.Errorf("missing row: attempted %d failed %d", a, f)
	}
	extra := append(append([]row(nil), want...), row{"fig5", "4gpu wt bf", "1", "GFLOPS"})
	if a, f, _ := compareRows(extra, want, false); a != 3 || f != 1 {
		t.Errorf("extra row: attempted %d failed %d", a, f)
	}
	swapped := []row{want[1], want[0]}
	if _, f, _ := compareRows(swapped, want, false); f != 2 {
		t.Errorf("reordered rows: failed %d, want 2", f)
	}
}

func TestCompareRowsHostClock(t *testing.T) {
	want := []row{{"stress", "w=100000 d=10 ov=0 submit=seq", "611110.95", "tasks/s"}}
	faster := []row{{"stress", "w=100000 d=10 ov=0 submit=seq", "700000.1", "tasks/s"}}
	if _, f, _ := compareRows(faster, want, true); f != 0 {
		t.Errorf("host-clock value differs: failed %d, want the value exempt", f)
	}
	for _, bad := range []row{
		{"stress", "w=100000 d=10 ov=0 submit=seq", "0", "tasks/s"},
		{"stress", "w=100000 d=10 ov=0 submit=seq", "NaNx", "tasks/s"},
		{"stress", "w=100 d=10 ov=0 submit=seq", "5", "tasks/s"},
		{"stress", "w=100000 d=10 ov=0 submit=seq", "5", "ops/s"},
	} {
		if _, f, _ := compareRows([]row{bad}, want, true); f != 1 {
			t.Errorf("%v accepted", bad)
		}
	}
}

// Every golden parses, belongs to a workload, and has positive values, so
// the geometric mean over them is defined.
func TestGoldensLoad(t *testing.T) {
	used := map[string]bool{}
	for _, w := range workloads {
		for _, x := range w.Experiments {
			used[x.Name] = true
			rows, err := readCSVFile(filepath.Join("golden", x.Name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Errorf("%s: no rows", x.Name)
			}
			v, err := values(rows)
			if err != nil {
				t.Error(err)
			}
			for i, f := range v {
				if !(f > 0) {
					t.Errorf("%s row %d: value %v", x.Name, i+1, f)
				}
			}
		}
	}
	files, err := os.ReadDir("golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !used[strings.TrimSuffix(f.Name(), ".csv")] {
			t.Errorf("golden/%s belongs to no workload", f.Name())
		}
	}
	if n, err := stressTasks("w=100000 d=10 ov=4 submit=batch"); err != nil || n != 1e6 {
		t.Errorf("stressTasks = %v, %v", n, err)
	}
}
