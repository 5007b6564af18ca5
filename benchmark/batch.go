package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// result is what one run of one workload produced.
type result struct {
	Attempted int
	Failed    int
	Failures  []string             // the first few, for the report
	Values    map[string]float64   // metric name -> value
	Samples   map[string][]float64 // metric name -> per-pass or per-request samples behind a median
	Notes     []string             // fixed sizes and other context printed beside the metrics
	Alias     map[string]string    // metric name -> the reading it repeats, where it has none of its own
}

func newResult() *result {
	return &result{Values: map[string]float64{}, Samples: map[string][]float64{}, Alias: map[string]string{}}
}

func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err.Error())
	}
}

func (r *result) fail(msg string) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, msg)
	}
}

// alias reports a metric that has no reading of its own on this workload
// as scale times one that has, so that the pair adds no independent gate.
func (r *result) alias(name, of string, scale float64) {
	r.Values[name] = r.Values[of] * scale
	r.Alias[name] = of
}

// pass is one run of every experiment of a batch workload, one child each.
type pass struct {
	usage                     // summed over the children
	wall   map[string]float64 // per experiment: harness clock around the child
	inside map[string]float64 // per experiment: the child's own -walltime
	rows   map[string][]row   // per experiment: the CSV it wrote
	cpu    map[string]float64 // per bucket: CPU ns (profiled pass only)
	alloc  map[string]float64 // per bucket: bytes allocated (profiled pass only)
}

// passCount turns --seconds into a number of passes using the workload's
// recorded pass length, so the count depends on the command line alone and
// is the same on every commit. Medians need at least two.
func passCount(w workload, seconds int) int {
	return max(2, int(math.Round(float64(seconds)/w.PassS)))
}

// runPass runs the workload's experiments once and checks each CSV against
// its golden. With profile set the children also write CPU and heap
// profiles, which are bucketed by layer.
func runPass(ctx context.Context, e *env, w workload, profile bool, res *result) *pass {
	p := &pass{
		wall: map[string]float64{}, inside: map[string]float64{}, rows: map[string][]row{},
		cpu: map[string]float64{}, alloc: map[string]float64{},
	}
	for _, x := range w.Experiments {
		csvPath := filepath.Join(e.dir, x.Name+".csv")
		wtPath := filepath.Join(e.dir, x.Name+".walltime.json")
		cpuPath := filepath.Join(e.dir, x.Name+".cpu.prof")
		memPath := filepath.Join(e.dir, x.Name+".mem.prof")
		args := []string{"-experiment", x.Name, "-parallel", "1", "-csv", csvPath, "-walltime", wtPath}
		if profile {
			args = append(args, "-cpuprofile", cpuPath, "-memprofile", memPath)
		}
		_, u, err := runChild(ctx, x.timeout(), nil, e.bench, args...)
		p.add(u)
		p.wall[x.Name] = u.WallS
		res.op(err)
		if err != nil {
			continue
		}
		if p.inside[x.Name], err = readWalltime(wtPath); err != nil {
			res.fail(err.Error())
		}
		rows, err := readCSVFile(csvPath)
		if err != nil {
			res.fail(err.Error())
			continue
		}
		p.rows[x.Name] = rows
		attempted, failed, first := compareRows(rows, e.golden[x.Name], x.HostClock)
		res.Attempted += attempted
		if failed > 0 {
			res.Failed += failed - 1
			res.fail(x.Name + ": " + first)
		}
		if profile {
			res.op(addProfile(ctx, p.cpu, cpuPath, ""))
			res.op(addProfile(ctx, p.alloc, memPath, "alloc_space"))
		}
	}
	return p
}

// addProfile buckets one profile into dst, in the profile's own unit (ns
// or bytes). CPU samples recorded without a stack go to go_runtime.other,
// so the buckets add up to the profile's declared total; a CPU profile
// that is further from its total than such samples explain is an error:
// the attribution rule lost samples.
func addProfile(ctx context.Context, dst map[string]float64, file, sampleIndex string) error {
	b, sum, declared, err := profileBuckets(ctx, file, sampleIndex)
	if err != nil {
		return err
	}
	if sampleIndex == "" {
		rest, err := stackless(sum, declared)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		dst["go_runtime.other"] += rest
	}
	for k, v := range b {
		dst[k] += v
	}
	return nil
}

// reportLayers writes the per-layer CPU seconds and MiB allocated from
// bucketed nanoseconds and bytes.
func reportLayers(res *result, cpuNS, allocB map[string]float64) {
	for _, l := range layers {
		res.Values[l+".cpu_s"] = cpuNS[l] / 1e9
		res.Values[l+".alloc_mb"] = allocB[l] / (1 << 20)
	}
}

func readWalltime(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var wt struct {
		MS float64 `json:"ms"`
	}
	if err := json.Unmarshal(b, &wt); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return wt.MS / 1000, nil
}

// goldenValues is every exactly-gated value of the workload, in golden
// order. Where the rows are host-clock (stress) the gated quantity is the
// task count w*d each row's label fixes.
func goldenValues(w workload, rows map[string][]row) ([]float64, error) {
	var all []float64
	for _, x := range w.Experiments {
		if x.HostClock {
			for _, r := range rows[x.Name] {
				n, err := stressTasks(r.Config)
				if err != nil {
					return nil, err
				}
				all = append(all, n)
			}
			continue
		}
		v, err := values(rows[x.Name])
		if err != nil {
			return nil, err
		}
		all = append(all, v...)
	}
	return all, nil
}

var stressLabel = regexp.MustCompile(`\bw=(\d+) d=(\d+)\b`)

func stressTasks(config string) (float64, error) {
	m := stressLabel.FindStringSubmatch(config)
	if m == nil {
		return 0, fmt.Errorf("stress row %q names no w= d= size", config)
	}
	width, _ := strconv.ParseFloat(m[1], 64)
	depth, _ := strconv.ParseFloat(m[2], 64)
	return width * depth, nil
}

// findRow returns the value of the first row whose config has the prefix
// and whose unit matches.
func findRow(rows []row, prefix, unit string) (float64, bool) {
	for _, r := range rows {
		if strings.HasPrefix(r.Config, prefix) && r.Unit == unit {
			v, err := r.float()
			return v, err == nil
		}
	}
	return 0, false
}

// runBatch measures a batch workload: passes untraced children, medians
// over passes. A metric the workload has no reading for is reported as an
// alias of one it has (see README "Metrics on every workload"), because
// every end-to-end metric is reported, and never 0, on every workload.
func runBatch(ctx context.Context, e *env, w workload, seconds int) *result {
	res := newResult()
	n := passCount(w, seconds)
	var passes []*pass
	for i := 0; i < n; i++ {
		passes = append(passes, runPass(ctx, e, w, false, res))
	}
	var rss float64
	for _, p := range passes {
		res.Samples["host_wall_s"] = append(res.Samples["host_wall_s"], p.WallS)
		res.Samples["host_cpu_s"] = append(res.Samples["host_cpu_s"], p.CPUS)
		rss = max(rss, p.RSSMiB)
	}
	wall := median(res.Samples["host_wall_s"])
	res.Values["host_wall_s"] = wall
	res.Values["host_cpu_s"] = median(res.Samples["host_cpu_s"])
	res.Values["host_peak_rss_mb"] = rss

	gated, err := goldenValues(w, passes[0].rows)
	if err != nil || len(gated) == 0 {
		res.fail(fmt.Sprintf("no gated values: %v", err))
		gated = []float64{1}
	}
	res.Values["virtual_figure_geomean"] = geomean(gated)
	if v, ok := findRow(passes[0].rows["weakscale"], "n=256 sharded", "tasks/s"); ok {
		res.Values["virtual_tasks_per_s"] = v
	} else {
		res.alias("virtual_tasks_per_s", "virtual_figure_geomean", 1)
	}
	res.Values["serve_rps"] = float64(len(w.Experiments)) / wall
	res.Alias["serve_rps"] = "children per host_wall_s"
	res.alias("serve_warm_p50_us", "host_wall_s", 1e6)
	res.alias("serve_cold_p50_ms", "host_wall_s", 1e3)

	res.Notes = append(res.Notes, fmt.Sprintf("%d passes of %d children; %d gated values per pass", n, len(w.Experiments), len(gated)))
	if w.Tasks > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d simulated tasks per pass: %.1f us host wall per task", w.Tasks, wall/float64(w.Tasks)*1e6))
	}
	return res
}

var critPath = regexp.MustCompile(`transfer \S+ \(([\d.]+)%\), idle \S+ \(([\d.]+)%\)`)

// runBatchTraced produces the per-layer metrics of a batch workload: one
// plain pass, one profiled pass, and for paper_figs the fig10 span counts
// and the fig9 single-thread ratio. Nothing here feeds an end-to-end
// number.
func runBatchTraced(ctx context.Context, e *env, w workload) *result {
	res := newResult()
	plain := runPass(ctx, e, w, false, res)
	traced := runPass(ctx, e, w, true, res)

	reportLayers(res, traced.cpu, traced.alloc)
	var inside float64
	for _, x := range w.Experiments {
		res.Values["bench."+x.Name+"_wall_s"] = plain.inside[x.Name]
		inside += plain.inside[x.Name]
	}
	res.Values["bench.process_overhead_s"] = plain.WallS - inside
	res.Values["go_runtime.nvcsw"] = float64(plain.NVCSw)
	res.Values["go_runtime.nivcsw"] = float64(plain.NIVCSw)
	res.Values["harness.profile_overhead_pct"] = (traced.WallS/plain.WallS - 1) * 100
	res.Notes = append(res.Notes, fmt.Sprintf("host_wall_s of the plain pass %.4f s = bench.*_wall_s %.4f s + bench.process_overhead_s", plain.WallS, inside))

	for _, sr := range stressRows {
		for _, r := range plain.rows["stress"] {
			if strings.Contains(r.Config, sr.Has) && (sr.HasNot == "" || !strings.Contains(r.Config, sr.HasNot)) {
				res.Values[sr.Metric], _ = r.float()
			}
		}
	}
	if ws := plain.rows["weakscale"]; ws != nil {
		dirops, ok1 := findRow(ws, "n=256 sharded", "ops/s")
		sharded, ok2 := findRow(ws, "n=256 sharded", "tasks/s")
		central, ok3 := findRow(ws, "n=256 centralized", "tasks/s")
		if ok1 && ok2 && ok3 {
			res.Values["dmgr.dirops_per_s_256"] = dirops
			res.Values["dmgr.sharded_speedup_256"] = sharded / central
		} else {
			res.fail("weakscale: no n=256 rows")
		}
	}
	if x, ok := w.experiment("fig10"); ok {
		res.op(traceFig10(ctx, e, x, res))
	}
	if x, ok := w.experiment("fig9"); ok {
		_, u, err := runChild(ctx, x.timeout(), append(os.Environ(), "GOMAXPROCS=1"), e.bench, "-experiment", x.Name, "-parallel", "1")
		res.op(err)
		if err == nil && plain.wall[x.Name] > 0 {
			res.Values["sim.gomaxprocs1_wall_ratio"] = u.WallS / plain.wall[x.Name]
		}
	}
	return res
}

// traceFig10 runs fig10 once with -trace and counts the spans of its
// designated grid point by category; the critical-path shares come from
// the report the program prints.
func traceFig10(ctx context.Context, e *env, x experiment, res *result) error {
	tracePath := filepath.Join(e.dir, x.Name+".trace.json")
	out, _, err := runChild(ctx, x.timeout(), nil, e.bench, "-experiment", x.Name, "-parallel", "1", "-trace", tracePath)
	if err != nil {
		return err
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		return err
	}
	var tr struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return fmt.Errorf("%s: %w", tracePath, err)
	}
	counts := map[string]float64{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			counts[ev.Cat]++
			counts[""]++
		}
	}
	for _, s := range traceSpanMetrics {
		res.Values[s.Metric] = counts[s.Cat]
	}
	res.Values["trace.spans_total"] = counts[""]
	m := critPath.FindSubmatch(out)
	if m == nil {
		return fmt.Errorf("fig10 -trace printed no critical-path shares")
	}
	res.Values["core.critpath_transfer_pct"], _ = strconv.ParseFloat(string(m[1]), 64)
	res.Values["core.critpath_idle_pct"], _ = strconv.ParseFloat(string(m[2]), 64)
	return nil
}
