package bench

import "testing"

// TestStressRunCompletes checks the stress driver runs a small grid to
// completion on every submission variant and reports a positive rate.
func TestStressRunCompletes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batch     bool
		lookahead int
		overlap   int
	}{
		{"seq", false, 0, 0},
		{"batch", true, 0, 0},
		{"batch_lookahead", true, 8, 0},
		{"batch_overlap", true, 0, 3},
	} {
		rate, err := stressRun(200, 4, tc.overlap, tc.batch, tc.lookahead)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rate <= 0 {
			t.Fatalf("%s: rate = %v, want > 0", tc.name, rate)
		}
	}
}

// TestStressExperimentRows checks the registered experiment emits the
// quick grid's four rows in tasks/s. The labels are exact: benchmark/'s
// golden gate reads each row's task count from its "w=%d d=%d".
func TestStressExperimentRows(t *testing.T) {
	rows, err := stress(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"w=20000 d=5 ov=0 submit=seq",
		"w=20000 d=5 ov=0 submit=batch",
		"w=20000 d=5 ov=0 submit=batch lookahead=32",
		"w=20000 d=5 ov=4 submit=batch",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Config != want[i] {
			t.Errorf("row %d config = %q, want %q", i, r.Config, want[i])
		}
		if r.Unit != "tasks/s" {
			t.Errorf("row %q unit = %q, want tasks/s", r.Config, r.Unit)
		}
		if r.Value <= 0 {
			t.Errorf("row %q value = %v, want > 0", r.Config, r.Value)
		}
	}
}

// TestStressExcludedFromAll pins the registration contract: stress is
// addressable by name but not part of the deterministic "all" suite.
func TestStressExcludedFromAll(t *testing.T) {
	for _, e := range All() {
		if e.Name == "stress" {
			t.Fatal("stress must not be in All(): its rows are wall-clock values")
		}
	}
	if _, ok := ByName("stress"); !ok {
		t.Fatal("ByName(stress) not found")
	}
}

// BenchmarkStress measures end-to-end submission+drain throughput on the
// strided layered grid (20k tasks per iteration), reporting tasks/sec.
func BenchmarkStress(b *testing.B) {
	const width, depth = 5000, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stressRun(width, depth, 0, true, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(width*depth*b.N)/b.Elapsed().Seconds(), "tasks/s")
}
