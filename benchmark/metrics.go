package main

// metric is one named measurement. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Two clocks, never mixed: virtual_* is simulated time and repeats
// exactly, so its bound only has to be above zero; host_* and serve_* are
// wall/CPU on this machine. The host bound is three times the run-to-run
// spread measured on the 2-vCPU VM this was sized on, where even a pure
// ALU loop drifts by +-15% over tens of seconds (README, "Noise").
const (
	boundExact = 1e-9
	boundHost  = 0.25
)

var endToEnd = []metric{
	{"setup_s", "s", "lower", boundHost},
	{"host_wall_s", "s", "lower", boundHost},
	{"host_cpu_s", "s", "lower", boundHost},
	{"host_peak_rss_mb", "MiB", "lower", boundHost},
	{"virtual_figure_geomean", "geomean", "higher", boundExact},
	{"virtual_tasks_per_s", "vtasks/s", "higher", boundExact},
	{"serve_rps", "1/s", "higher", boundHost},
	{"serve_warm_p50_us", "us", "lower", boundHost},
	{"serve_cold_p50_ms", "ms", "lower", boundHost},
}

// layers are this repository's modules (the element after internal/ in a
// function's import path), plus "other" for module code outside them and
// three buckets for samples that never enter module code.
var layers = []string{
	"sim", "netsim", "gasnet", "memspace", "depgraph", "coherence", "dmgr",
	"sched", "core", "gpusim", "kernels", "apps", "mpi", "faults", "detmap",
	"metrics", "trace", "bench", "serve", "other",
	"go_runtime.sched", "go_runtime.gc", "go_runtime.other",
}

// experiment is one ompss-bench child of a batch pass. NominalS is its
// wall time at full size on the commit that recorded the goldens; a child
// is killed after ten times that. HostClock marks an experiment whose row
// values are wall-clock throughput, which no golden can pin.
type experiment struct {
	Name      string
	NominalS  float64
	HostClock bool
}

var paperExperiments = []experiment{
	{Name: "fig5", NominalS: 2.7}, {Name: "fig6", NominalS: 0.5}, {Name: "fig7", NominalS: 0.55},
	{Name: "fig8", NominalS: 0.1}, {Name: "fig9", NominalS: 6.4}, {Name: "fig10", NominalS: 0.45},
	{Name: "fig11", NominalS: 0.2}, {Name: "fig12", NominalS: 0.45}, {Name: "fig13", NominalS: 0.1},
	{Name: "heat", NominalS: 2.0},
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Batch workloads: the children of one pass, the nominal pass length
	// that turns --seconds into a pass count, and the number of simulated
	// tasks the full-size grid submits per pass (0: not a fixed count), so
	// that host time per task can be derived.
	Experiments []experiment `json:"-"`
	PassS       float64      `json:"-"`
	Tasks       int          `json:"-"`
}

// experiment returns the workload's experiment of that name.
func (w workload) experiment(name string) (experiment, bool) {
	for _, x := range w.Experiments {
		if x.Name == name {
			return x, true
		}
	}
	return experiment{}, false
}

var workloads = []workload{
	{
		Name:        "paper_figs",
		Why:         "fig5-13 + heat at paper sizes, one child each: few large-region tasks, so coherence cache, core staging, sim switching and gasnet/netsim work while depgraph/sched idle",
		Experiments: paperExperiments,
		PassS:       13.5,
	},
	{
		Name:        "weakscale_tiny_tasks",
		Why:         "8/64/256 nodes x centralized/sharded with 20us tasks: per-task overhead through sim, gasnet, netsim, dmgr and core dispatch while the coherence cache and gpusim idle",
		Experiments: []experiment{{Name: "weakscale", NominalS: 8.5}},
		PassS:       8.5,
		Tasks:       131200,
	},
	{
		Name:        "submit_stress",
		Why:         "10^6 tasks x {seq, batch, lookahead, overlap}: depgraph, memspace.FragMap, sched and the directory with no simulator, so a sim/gasnet change must show nothing here",
		Experiments: []experiment{{Name: "stress", NominalS: 8.7, HostClock: true}},
		PassS:       8.7,
		Tasks:       4000000,
	},
	{
		Name: "serve_mixed",
		Why:  "closed loop, nproc keep-alive clients on ompss-serve: 99.8% warm hits on 64 hot keys (serve hash/cache path), 0.2% never-seen quick fig11-13 points (serve to bench to runtime)",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stressRows maps the four rows of the stress experiment, by a substring
// of their config label that no other row has, to the layer metric each
// one reports.
var stressRows = []struct{ Metric, Has, HasNot string }{
	{"depgraph.submit_seq_tasks_per_s", "submit=seq", ""},
	{"depgraph.submit_batch_tasks_per_s", "ov=0 submit=batch", "lookahead"},
	{"sched.lookahead_tasks_per_s", "lookahead=", ""},
	{"memspace.overlap_split_tasks_per_s", "ov=4", ""},
}

var traceSpanMetrics = []struct{ Metric, Cat string }{
	{"core.task_spans", "task"},
	{"coherence.stage_spans", "stage"},
	{"gpusim.h2d_spans", "h2d"},
	{"netsim.net_spans", "net"},
}

// perLayer lists every per-layer metric in output order. A metric that
// does not exist on a workload (a layer that did no work there, a serve
// counter on a batch workload) reads 0.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{Name: l + ".cpu_s", Unit: "s", Better: "lower"})
	}
	for _, l := range layers {
		out = append(out, metric{Name: l + ".alloc_mb", Unit: "MiB", Better: "lower"})
	}
	for _, e := range paperExperiments {
		out = append(out, metric{Name: "bench." + e.Name + "_wall_s", Unit: "s", Better: "lower"})
	}
	out = append(out,
		metric{Name: "bench.weakscale_wall_s", Unit: "s", Better: "lower"},
		metric{Name: "bench.stress_wall_s", Unit: "s", Better: "lower"},
		metric{Name: "bench.process_overhead_s", Unit: "s", Better: "lower"},
	)
	for _, r := range stressRows {
		out = append(out, metric{Name: r.Metric, Unit: "tasks/s", Better: "higher"})
	}
	out = append(out,
		metric{Name: "dmgr.dirops_per_s_256", Unit: "vops/s", Better: "higher"},
		metric{Name: "dmgr.sharded_speedup_256", Unit: "ratio", Better: "higher"},
	)
	for _, s := range traceSpanMetrics {
		out = append(out, metric{Name: s.Metric, Unit: "count", Better: "lower"})
	}
	out = append(out,
		metric{Name: "trace.spans_total", Unit: "count", Better: "lower"},
		metric{Name: "core.critpath_transfer_pct", Unit: "%", Better: "lower"},
		metric{Name: "core.critpath_idle_pct", Unit: "%", Better: "lower"},
		metric{Name: "go_runtime.nvcsw", Unit: "count", Better: "lower"},
		metric{Name: "go_runtime.nivcsw", Unit: "count", Better: "lower"},
		metric{Name: "sim.gomaxprocs1_wall_ratio", Unit: "ratio", Better: "lower"},
		metric{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "serve.cold_execs", Unit: "count", Better: "lower"},
		metric{Name: "serve.coalesced", Unit: "count", Better: "lower"},
		metric{Name: "serve.rejected", Unit: "count", Better: "lower"},
		metric{Name: "serve.queue_max", Unit: "count", Better: "lower"},
		metric{Name: "serve.cpu_us_per_req", Unit: "us", Better: "lower"},
		metric{Name: "serve.warm_p99_us", Unit: "us", Better: "lower"},
		metric{Name: "harness.client_cpu_s", Unit: "s", Better: "lower"},
		metric{Name: "harness.profile_overhead_pct", Unit: "%", Better: "lower"},
	)
	return out
}
