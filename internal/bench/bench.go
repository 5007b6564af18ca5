// Package bench defines one experiment per table and figure of the paper's
// evaluation (Figures 5-13, Table I). Each experiment runs the relevant
// application over the relevant machine and parameter grid and returns the
// rows/series the paper plots. cmd/ompss-bench prints them; the root
// bench_test.go exposes each as a testing.B benchmark; EXPERIMENTS.md
// records paper-vs-measured.
package bench

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/sched"
)

// Row is one data point of a figure: one bar or one series point.
type Row struct {
	Experiment string  // "fig5"
	Config     string  // "4gpu wb affinity"
	Value      float64 // the plotted metric
	Unit       string  // "GFLOPS", "GB/s", "Mpixels/s", "lines"
}

func (r Row) String() string {
	return fmt.Sprintf("%-6s %-42s %10.2f %s", r.Experiment, r.Config, r.Value, r.Unit)
}

// Options tunes experiment scale and harness parallelism.
type Options struct {
	// Quick shrinks problem sizes so the whole suite runs in seconds while
	// preserving every qualitative shape. Full sizes are the paper's.
	Quick bool

	// Parallel is the number of worker goroutines running grid points of an
	// experiment concurrently. Every grid point builds its own Engine and
	// is fully independent, and results are assembled in grid order, so the
	// output is bit-identical at any worker count. 0 or 1 runs
	// sequentially; negative uses GOMAXPROCS.
	Parallel int

	// Trace, when non-nil, records the execution timeline of each
	// experiment's designated grid point (currently fig10's largest-node
	// OmpSs run; other experiments record nothing). Exactly one simulated
	// run writes the recorder, so it is safe at any Parallel setting, and
	// recording does not perturb virtual time: the traced run's rows are
	// bit-identical to an untraced run's.
	Trace *ompss.Trace

	// StressWidth, StressDepth, and StressOverlap override the stress
	// experiment's grid shape: width independent regions, depth layers of
	// one InOut task each, and (when StressOverlap > 0) every
	// StressOverlap-th column straddling a fragment boundary on odd
	// layers. Zero means the experiment's defaults (10^6 tasks full,
	// 10^5 quick). Other experiments ignore these.
	StressWidth   int
	StressDepth   int
	StressOverlap int

	// GridPoint restricts a grid experiment to the single point whose
	// Config label matches exactly (e.g. "4gpu wb affinity"); the other
	// points never run. Experiments that derive rows across points
	// (resilience) run their full grid and are filtered by Execute
	// instead. Empty runs everything.
	GridPoint string

	// OnPoint, when non-nil, is called once per completed grid point,
	// success or failure. Calls are serialized by the harness but arrive
	// in completion order, which under Parallel > 1 is not grid order;
	// Index/Total locate the point in the grid. Experiments that bypass
	// runGrid (table1, the derived resilience rows) emit no events.
	OnPoint func(PointDone)

	// Lookahead, when > 0, sets Config.Lookahead (the per-place
	// ready-ahead window, PR 6) on every simulated grid point of the fig
	// and heat experiments. Zero keeps the paper default (off), which is
	// what the bit-identical fig5-13 guarantee is pinned against.
	Lookahead int

	// Scheduler, when non-empty, overrides the scheduler policy of the
	// cluster experiments (fig9-13, heat), whose grids pin it to
	// Affinity. The multi-GPU figures sweep the scheduler as part of
	// their grid and ignore this; select a point with GridPoint instead.
	Scheduler sched.Policy

	// Faults, when non-nil, arms the resilience machinery with this plan
	// on every cluster grid point (fig9-13, heat). The resilience
	// experiment manages its own per-scenario plans and ignores it.
	Faults *faults.Plan
}

// PointDone reports one completed grid point to Options.OnPoint.
type PointDone struct {
	Experiment string
	Config     string
	Index      int // position in the grid, 0-based
	Total      int // grid size after GridPoint filtering
	Err        error
}

// workers resolves Parallel to a concrete worker count.
func (o Options) workers() int {
	if o.Parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

// Experiment is a named, runnable table/figure reproduction.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) ([]Row, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig5", "Matrix multiply, multi-GPU node: cache policy x scheduler x GPUs", Fig5},
		{"fig6", "STREAM, multi-GPU node: cache policy x scheduler x GPUs", Fig6},
		{"fig7", "Perlin noise, multi-GPU node: Flush/NoFlush x cache policy x GPUs", Fig7},
		{"fig8", "N-Body, multi-GPU node: cache policy x GPUs", Fig8},
		{"fig9", "Matrix multiply, GPU cluster: StoS x init x presend x nodes", Fig9},
		{"fig10", "Matrix multiply, GPU cluster: best OmpSs vs MPI+CUDA (SUMMA)", Fig10},
		{"fig11", "STREAM, GPU cluster: OmpSs vs MPI+CUDA", Fig11},
		{"fig12", "Perlin noise, GPU cluster: Flush/NoFlush, OmpSs vs MPI+CUDA", Fig12},
		{"fig13", "N-Body, GPU cluster: OmpSs vs MPI+CUDA", Fig13},
		{"table1", "Useful lines of code: Serial vs CUDA vs MPI+CUDA vs OmpSs", Table1},
		{"ablations", "Runtime-mechanism ablations on Matmul (beyond the paper's grid)", Ablations},
		{"resilience", "Fault injection on cluster Matmul/STREAM: correctness and cost under drops, stalls, crashes", Resilience},
		{"heat", "Jacobi heat stencil, GPU cluster: overlapping halo regions, checksum-validated", Heat},
	}
}

// Extras returns experiments runnable by name but excluded from "all":
// they are not paper figures. stress reports host wall-clock tasks/sec
// (never golden-comparable, and it would perturb the suite's timing
// harness); weakscale is deterministic virtual time but probes the
// manager layer, not a figure, and has its own CI gates
// (cmd/smoke_test.go, bench_guard).
func Extras() []Experiment {
	return []Experiment{
		{"stress", "Submission stress: host-side tasks/sec on strided million-task graphs", Stress},
		{"weakscale", "Weak scaling: centralized vs sharded managers, tasks/sec and dirops/sec", Weakscale},
		{"powercap", "Power-capped mixed cluster: time-vs-cap frontier, bf/default/affinity/heft", Powercap},
	}
}

// ByName returns the experiment called name.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	for _, e := range Extras() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the experiment names in order.
func Names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	return out
}

// policies and schedulers in the order the paper's charts group them.
var (
	cachePolicies = []coherence.Policy{coherence.NoCache, coherence.WriteThrough, coherence.WriteBack}
	schedulers    = []sched.Policy{sched.BreadthFirst, sched.Dependencies, sched.Affinity}
)

// schedLabel matches the paper's chart legend.
func schedLabel(p sched.Policy) string {
	switch p {
	case sched.BreadthFirst:
		return "bf"
	case sched.Dependencies:
		return "default"
	case sched.Affinity:
		return "affinity"
	}
	return string(p)
}

// multiGPUConfig is the baseline configuration of the multi-GPU node runs.
// The scheduler is part of these experiments' grids, so Options.Scheduler
// does not apply here; Lookahead does.
func multiGPUConfig(o Options, gpus int, policy coherence.Policy, scheduler sched.Policy) ompss.Config {
	cfg := ompss.Config{
		Cluster:          ompss.MultiGPUSystem(gpus),
		Scheduler:        scheduler,
		CachePolicy:      policy,
		NonBlockingCache: true,
		Steal:            true,
	}
	if o.Lookahead > 0 {
		cfg.Lookahead = o.Lookahead
	}
	return cfg
}

// point is one independent grid point of an experiment: one simulated run
// on its own Engine, producing one row. run returns the plotted value and
// its unit.
type point struct {
	config string
	run    func() (float64, string, error)
}

// runGrid executes the grid points of experiment exp across o.workers()
// goroutines and assembles the rows in grid order, so the result is
// bit-identical to a sequential run. On failure it returns the rows that
// precede the first failing point (in grid order) and that point's error,
// matching the sequential early-return behavior. A GridPoint filter keeps
// only the matching point; no match runs nothing and returns no rows
// (Execute turns that into an error naming the request).
func runGrid(exp string, o Options, pts []point) ([]Row, error) {
	if o.GridPoint != "" {
		kept := make([]point, 0, 1)
		for _, p := range pts {
			if p.config == o.GridPoint {
				kept = append(kept, p)
			}
		}
		pts = kept
	}
	rows := make([]Row, len(pts))
	errs := make([]error, len(pts))
	var notifyMu sync.Mutex
	runOne := func(i int) {
		v, unit, err := pts[i].run()
		if err != nil {
			errs[i] = fmt.Errorf("%s %s: %w", exp, pts[i].config, err)
		} else {
			rows[i] = Row{Experiment: exp, Config: pts[i].config, Value: v, Unit: unit}
		}
		if o.OnPoint != nil {
			notifyMu.Lock()
			o.OnPoint(PointDone{Experiment: exp, Config: pts[i].config,
				Index: i, Total: len(pts), Err: errs[i]})
			notifyMu.Unlock()
		}
	}
	if n := o.workers(); n > 1 && len(pts) > 1 {
		if n > len(pts) {
			n = len(pts)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range pts {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range pts {
			if runOne(i); errs[i] != nil {
				break
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			return rows[:i], err
		}
	}
	return rows, nil
}

// clusterConfig is the baseline configuration of the GPU-cluster runs,
// using the best multi-GPU parameters (write-back cache, locality-aware
// scheduler), as Section IV.B.2 does. Options may override the scheduler
// and lookahead window and arm a fault plan; zero Options reproduce the
// paper configuration exactly.
func clusterConfig(o Options, nodes int) ompss.Config {
	cfg := ompss.Config{
		Cluster:          ompss.GPUCluster(nodes),
		Scheduler:        sched.Affinity,
		CachePolicy:      coherence.WriteBack,
		NonBlockingCache: true,
		Steal:            true,
	}
	if o.Scheduler != "" {
		cfg.Scheduler = o.Scheduler
	}
	if o.Lookahead > 0 {
		cfg.Lookahead = o.Lookahead
	}
	if o.Faults != nil {
		plan := *o.Faults
		cfg.Faults = &plan
	}
	return cfg
}
