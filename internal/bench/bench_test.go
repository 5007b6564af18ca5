package bench

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/sched"
)

// The bench tests run every experiment at quick scale and assert the
// qualitative shapes the paper reports — the actual reproduction criteria
// of EXPERIMENTS.md. Absolute values are free to move; orderings are not.

func rows(t *testing.T, name string) map[string]float64 {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	rs, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(rs))
	for _, r := range rs {
		out[r.Config] = r.Value
	}
	return out
}

// expectOrder asserts v[a] > v[b] for each consecutive pair.
func expectOrder(t *testing.T, v map[string]float64, keys ...string) {
	t.Helper()
	for i := 0; i+1 < len(keys); i++ {
		a, b := keys[i], keys[i+1]
		va, oka := v[a]
		vb, okb := v[b]
		if !oka || !okb {
			t.Fatalf("missing rows %q/%q in %v", a, b, keysOf(v))
		}
		if va <= vb {
			t.Errorf("expected %q (%.1f) > %q (%.1f)", a, va, b, vb)
		}
	}
}

func keysOf(v map[string]float64) []string {
	var out []string
	for k := range v {
		out = append(out, k)
	}
	return out
}

func TestFig5Shapes(t *testing.T) {
	v := rows(t, "fig5")
	// Cache policy ordering at every GPU count: wb > wt > nocache.
	for _, g := range []string{"1gpu", "2gpu", "4gpu"} {
		expectOrder(t, v, g+" wb default", g+" wt default", g+" nocache default")
	}
	// Smarter schedulers beat breadth-first at 4 GPUs with write-back
	// ("up to the point of almost doubling the performance").
	expectOrder(t, v, "4gpu wb default", "4gpu wb bf")
	expectOrder(t, v, "4gpu wb affinity", "4gpu wb bf")
	if v["4gpu wb default"] < 1.4*v["4gpu wb bf"] {
		t.Errorf("4gpu wb: default (%.0f) should be well above bf (%.0f)",
			v["4gpu wb default"], v["4gpu wb bf"])
	}
	// Write-back scales with GPUs.
	expectOrder(t, v, "4gpu wb default", "2gpu wb default", "1gpu wb default")
}

func TestFig6Shapes(t *testing.T) {
	v := rows(t, "fig6")
	// Memory management dominates: wb far above wt and nocache.
	for _, g := range []string{"1gpu", "2gpu", "4gpu"} {
		expectOrder(t, v, g+" wb default", g+" wt default")
		expectOrder(t, v, g+" wb default", g+" nocache default")
		if v[g+" wb default"] < 3*v[g+" wt default"] {
			t.Errorf("%s: wb (%.0f) should dwarf wt (%.0f)", g, v[g+" wb default"], v[g+" wt default"])
		}
	}
	// The data-aware schedulers (default, affinity) are equivalent; plain
	// breadth-first additionally suffers block migration in our simulator
	// (see EXPERIMENTS.md for the divergence note).
	for _, g := range []string{"1gpu", "4gpu"} {
		def, aff := v[g+" wb default"], v[g+" wb affinity"]
		if diff := def/aff - 1; diff > 0.25 || diff < -0.25 {
			t.Errorf("%s wb: default vs affinity differ by %.0f%%", g, diff*100)
		}
	}
	// Aggregate bandwidth scales with GPUs.
	expectOrder(t, v, "4gpu wb default", "2gpu wb default", "1gpu wb default")
}

func TestFig7Shapes(t *testing.T) {
	v := rows(t, "fig7")
	for _, g := range []string{"1gpu", "2gpu", "4gpu"} {
		// NoFlush with write-back far exceeds every Flush variant.
		expectOrder(t, v, g+" noflush wb", g+" flush wb")
		if v[g+" noflush wb"] < 1.5*v[g+" flush wb"] {
			t.Errorf("%s: noflush wb (%.0f) should be well above flush wb (%.0f)",
				g, v[g+" noflush wb"], v[g+" flush wb"])
		}
	}
	expectOrder(t, v, "4gpu noflush wb", "2gpu noflush wb", "1gpu noflush wb")
}

func TestFig8Shapes(t *testing.T) {
	v := rows(t, "fig8")
	// Under memory pressure no-cache outperforms the caching policies.
	for _, g := range []string{"1gpu", "2gpu", "4gpu"} {
		expectOrder(t, v, g+" nocache", g+" wb")
		expectOrder(t, v, g+" nocache", g+" wt")
	}
	// And still scales to 2 and 4 GPUs.
	expectOrder(t, v, "4gpu nocache", "2gpu nocache", "1gpu nocache")
}

func TestFig9Shapes(t *testing.T) {
	v := rows(t, "fig9")
	// Slave-to-slave transfers are a must at scale.
	expectOrder(t, v, "8node StoS smp presend2", "8node MtoS smp presend2")
	if v["8node StoS smp presend2"] < 1.5*v["8node MtoS smp presend2"] {
		t.Errorf("StoS should be decisive at 8 nodes: %.0f vs %.0f",
			v["8node StoS smp presend2"], v["8node MtoS smp presend2"])
	}
	// Parallel initialization is critical.
	expectOrder(t, v, "8node StoS smp presend2", "8node StoS seq presend2")
	// Presend helps as nodes grow.
	expectOrder(t, v, "8node StoS smp presend2", "8node StoS smp presend0")
	expectOrder(t, v, "8node MtoS smp presend2", "8node MtoS smp presend0")
}

func TestFig10Shapes(t *testing.T) {
	v := rows(t, "fig10")
	// MPI ahead on one node; the runtime's techniques win at scale.
	expectOrder(t, v, "1node mpi+cuda", "1node ompss")
	expectOrder(t, v, "8node ompss", "8node mpi+cuda")
	// OmpSs keeps scaling through 8 nodes.
	expectOrder(t, v, "8node ompss", "4node ompss", "2node ompss")
}

func TestFig11Shapes(t *testing.T) {
	v := rows(t, "fig11")
	// Both versions scale roughly linearly.
	for _, who := range []string{"ompss", "mpi+cuda"} {
		one, eight := v["1node "+who], v["8node "+who]
		if eight < 6*one {
			t.Errorf("%s STREAM: 8 nodes = %.0f, want >= 6x one node (%.0f)", who, eight, one)
		}
	}
	// And land within 35% of each other.
	if r := v["8node ompss"] / v["8node mpi+cuda"]; r < 0.65 || r > 1.35 {
		t.Errorf("ompss/mpi ratio at 8 nodes = %.2f, want near 1", r)
	}
}

func TestFig12Shapes(t *testing.T) {
	v := rows(t, "fig12")
	for _, n := range []string{"1node", "4node", "8node"} {
		// NoFlush far above Flush for both models.
		expectOrder(t, v, n+" noflush ompss", n+" flush ompss")
		expectOrder(t, v, n+" noflush mpi+cuda", n+" flush mpi+cuda")
		// Flush performance is about the same in both models.
		if r := v[n+" flush ompss"] / v[n+" flush mpi+cuda"]; r < 0.6 || r > 1.7 {
			t.Errorf("%s flush: ompss/mpi ratio %.2f, want near 1", n, r)
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	v := rows(t, "fig13")
	// At small node counts OmpSs does not beat MPI decisively (the paper
	// has it slightly behind); allow parity.
	if v["2node ompss"] > 1.2*v["2node mpi+cuda"] {
		t.Errorf("2node: ompss (%.0f) unexpectedly far above mpi (%.0f)",
			v["2node ompss"], v["2node mpi+cuda"])
	}
	// Both run; OmpSs stays within a plausible band of MPI everywhere.
	for _, n := range []string{"1node", "2node", "4node", "8node"} {
		if r := v[n+" ompss"] / v[n+" mpi+cuda"]; r < 0.5 || r > 2 {
			t.Errorf("%s: ompss/mpi ratio %.2f out of band", n, r)
		}
	}
}

// TestFig13SchedulerOverride: fig13 runs dependencies by default, and a
// scheduler override reaches its runs like every cluster figure's.
func TestFig13SchedulerOverride(t *testing.T) {
	if got := fig13Config(Options{}, 2).Scheduler; got != sched.Dependencies {
		t.Errorf("default scheduler = %q, want %q", got, sched.Dependencies)
	}
	if got := fig13Config(Options{Scheduler: sched.HEFT}, 2).Scheduler; got != sched.HEFT {
		t.Errorf("overridden scheduler = %q, want %q", got, sched.HEFT)
	}
}

func TestTable1Shapes(t *testing.T) {
	e, _ := ByName("table1")
	rs, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Group by app; assert serial < ompss < mpi+cuda and ompss <= cuda,
	// the paper's productivity ordering.
	byApp := map[string]map[string]float64{}
	for _, r := range rs {
		fields := strings.Fields(r.Config)
		app, variant := fields[0], fields[1]
		if byApp[app] == nil {
			byApp[app] = map[string]float64{}
		}
		byApp[app][variant] = r.Value
	}
	if len(byApp) != 4 {
		t.Fatalf("apps = %v", byApp)
	}
	for app, v := range byApp {
		if !(v["ompss"] < v["mpi+cuda"]) {
			t.Errorf("%s: ompss (%v lines) should be below mpi+cuda (%v)", app, v["ompss"], v["mpi+cuda"])
		}
		if !(v["ompss"] <= v["cuda"]) {
			t.Errorf("%s: ompss (%v lines) should not exceed cuda (%v)", app, v["ompss"], v["cuda"])
		}
		if !(v["cuda"] < v["mpi+cuda"]) {
			t.Errorf("%s: cuda (%v lines) should be below mpi+cuda (%v)", app, v["cuda"], v["mpi+cuda"])
		}
	}
}

func TestAllAndNames(t *testing.T) {
	all := All()
	if len(all) != 13 || all[0].Name != "fig5" || all[9].Name != "table1" || all[12].Name != "heat" {
		t.Fatalf("%d experiments; want 13, fig5 first, table1 tenth, heat last", len(all))
	}
	if _, ok := ByName("nosuch"); ok {
		t.Fatal("ByName should reject unknown names")
	}
	for _, e := range All() {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.Name)
		}
	}
}

func TestResilienceShapes(t *testing.T) {
	v := rows(t, "resilience")
	// Correctness is asserted inside the experiment (every faulted run must
	// reproduce the clean checksum); the shapes here are about cost.
	// Surviving faults cannot be free, but light faults must stay close.
	expectOrder(t, v, "8node matmul clean", "8node matmul drop1%")
	expectOrder(t, v, "8node matmul drop0.1%", "8node matmul drop1%")
	expectOrder(t, v, "8node matmul clean", "8node matmul degraded lat x4 bw x0.5")
	if v["8node matmul armed zero-fault"] < 0.9*v["8node matmul clean"] {
		t.Errorf("armed zero-fault protocol overhead too high: %.1f vs clean %.1f",
			v["8node matmul armed zero-fault"], v["8node matmul clean"])
	}
	// The overhead row is elapsed virtual time, so it is exact: the budget
	// is 2 % (1.41 % at quick size).
	if over, ok := v["armed zero-fault overhead"]; !ok || over > 2.0 {
		t.Errorf("armed zero-fault overhead = %v %% (row present %v), budget 2 %%", over, ok)
	}
	// The crash run loses a node mid-flight and replays work; it must still
	// finish with usable throughput (the exact cost depends on how much the
	// dead node held — at quick scale event reordering can even make it a
	// hair faster than clean, so no strict ordering here).
	if crash := v["8node matmul crash 1-of-8"]; crash < 0.3*v["8node matmul clean"] {
		t.Errorf("crash run collapsed: %.1f vs clean %.1f", crash, v["8node matmul clean"])
	}
	if v["crash dead nodes"] != 1 {
		t.Errorf("crash dead nodes = %v, want 1", v["crash dead nodes"])
	}
	if v["crash tasks re-executed"] < 1 {
		t.Errorf("crash re-executed %v tasks, want >= 1", v["crash tasks re-executed"])
	}
	if v["crash recovery time"] <= 0 {
		t.Errorf("crash recovery time = %v ms, want > 0", v["crash recovery time"])
	}
	if v["drop1% retries"] < 1 {
		t.Errorf("drop1%% retries = %v, want >= 1", v["drop1% retries"])
	}
}

func TestAblationShapes(t *testing.T) {
	v := rows(t, "ablations")
	// Prefetch with overlap beats overlap alone.
	expectOrder(t, v, "4gpu overlap prefetch=true", "4gpu overlap=true")
	// Slave-to-slave transfers are decisive at 8 nodes.
	expectOrder(t, v, "8node stos=true", "8node stos=false")
	// Presend is monotone on this workload.
	expectOrder(t, v, "4node presend=4", "4node presend=0")
	// The non-blocking cache beats waiting on each transfer in turn.
	expectOrder(t, v, "2node nbody nonblocking=true", "2node nbody nonblocking=false")
	// More communication threads must not hurt.
	if one, four := v["16node weakscale commthreads=1"], v["16node weakscale commthreads=4"]; one == 0 || four < 0.9*one {
		t.Errorf("4 comm threads regressed: %v vs %v", four, one)
	}
}

// Every ablation row differs from some row of its workload in exactly one
// Config field, and every such pair must read differently: a pair that
// reads the same shows no mechanism at work. Two rows of one workload with
// equal Configs are one simulation run twice. The quick CSV is the run's
// output (TestQuickGoldens holds the two together), so this reads it
// rather than running the grid again.
func TestAblationEveryMechanismMoves(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "quick", "ablations.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	for _, r := range recs[1:] {
		values[r[1]] = r[2]
	}
	grid := ablationGrid(Options{Quick: true})
	if len(grid) == 0 || len(grid) != len(values) {
		t.Fatalf("the grid has %d rows, the quick CSV %d", len(grid), len(values))
	}
	measured := make([]bool, len(grid))
	for i, a := range grid {
		for j := i + 1; j < len(grid); j++ {
			b := grid[j]
			if a.workload != b.workload {
				continue
			}
			switch diff := configDiff(a.cfg, b.cfg); len(diff) {
			case 0:
				t.Errorf("%q and %q run the same configuration", a.config, b.config)
			case 1:
				measured[i], measured[j] = true, true
				if values[a.config] == values[b.config] {
					t.Errorf("%q and %q both read %s: %s moves nothing", a.config, b.config, values[a.config], diff[0])
				}
			}
		}
	}
	for i, ok := range measured {
		if !ok {
			t.Errorf("%q differs from every other %s row in more than one setting", grid[i].config, grid[i].workload)
		}
	}
}

// configDiff names the Config fields in which a and b differ.
func configDiff(a, b ompss.Config) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var diff []string
	for i := range va.NumField() {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, va.Type().Field(i).Name)
		}
	}
	return diff
}

func TestHeatShapes(t *testing.T) {
	v := rows(t, "heat")
	// Correctness is asserted inside the experiment (every point checks the
	// serial checksum); the shape here is scaling. Going from one node to
	// two pays the halo exchange over the network, so the single-node point
	// is not comparable; across the multi-node points the per-node work is
	// fixed and aggregate cell updates must grow with node count.
	expectOrder(t, v, "8node ompss", "4node ompss", "2node ompss")
	for _, cfg := range []string{"1node ompss", "2node ompss", "4node ompss", "8node ompss"} {
		if v[cfg] <= 0 {
			t.Errorf("%s = %v, want > 0", cfg, v[cfg])
		}
	}
}
