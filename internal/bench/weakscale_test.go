package bench

import "testing"

// The acceptance bar of the distributed-manager work: at 256 nodes the
// sharded manager layer must deliver at least twice the centralized
// tasks/sec. A small chain grid keeps the test fast; throughput is
// virtual-time, so the ratio is deterministic.
func TestWeakscale256ShardedBeatsCentralized(t *testing.T) {
	const nodes, chains, depth = 256, 1, 6
	central, err := weakscaleRun(nodes, 1, chains, depth)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := weakscaleRun(nodes, weakscaleShards(nodes), chains, depth)
	if err != nil {
		t.Fatal(err)
	}
	ctps := float64(nodes*chains*depth) / central.ElapsedSeconds
	stps := float64(nodes*chains*depth) / sharded.ElapsedSeconds
	t.Logf("256 nodes: centralized %.0f tasks/s, sharded %.0f tasks/s (%.2fx)",
		ctps, stps, stps/ctps)
	if stps < 2*ctps {
		t.Fatalf("sharded = %.0f tasks/s, centralized = %.0f tasks/s: ratio %.2f < 2",
			stps, ctps, stps/ctps)
	}
}

// Weakscale quick must emit the full row set cmd/smoke_test.go matches:
// both verify rows ok, and a tasks/s plus dirops pair per (nodes, mode).
func TestWeakscaleQuickRowShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick grid")
	}
	rows, err := Weakscale(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"verify n=8 shards 1 vs 4",
		"verify n=32 shards 1 vs 4",
		"n=8 centralized",
		"n=8 centralized dirops",
		"n=8 sharded s=2",
		"n=8 sharded s=2 dirops",
		"n=64 centralized",
		"n=64 centralized dirops",
		"n=64 sharded s=16",
		"n=64 sharded s=16 dirops",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if rows[i].Config != w {
			t.Fatalf("row %d = %q, want %q", i, rows[i].Config, w)
		}
		if rows[i].Value <= 0 {
			t.Fatalf("row %q has non-positive value %f", w, rows[i].Value)
		}
	}
}
