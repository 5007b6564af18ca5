// Command benchmark is this repository's performance benchmark: four
// workloads, two clocks, every metric named. It drives the product only
// through its stable surfaces — the ompss-bench and ompss-serve command
// lines and the service's HTTP API — and imports nothing but the standard
// library, so that a change to the product's internals can be measured by
// a harness it did not have to edit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runBudget bounds one workload's run once the binaries are built; the
// first build of a checkout may take longer and is bounded separately.
const runBudget = 170 * time.Second

func main() {
	agree, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !agree {
		os.Exit(1)
	}
}

// run parses the command line, measures, and prints the report followed by
// the machine-readable result. agree is false only when -aa found two runs
// of the same code further apart than a metric's bound.
func run() (agree bool, err error) {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs (the serve_mixed request schedule)")
		seconds = flag.Int("seconds", 25, "nominal measured seconds per workload; fixes pass and request counts")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
		aa      = flag.Bool("aa", false, "run the untraced set twice and fail if the two disagree beyond a metric's bound")
		list    = flag.Bool("list", false, "print every workload and metric with unit, direction and bound, then exit")
		root    = flag.String("root", ".", "root of the checkout to build and measure")
	)
	flag.Parse()
	if *list {
		printList()
		return true, nil
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return false, fmt.Errorf("--seconds must be >= 1, --trace 0 or 1, and there are no positional arguments")
	}
	traced := *trace == 1
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q; use -list", *name)
		}
		selected = []workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runSet := func() (map[string]*result, error) {
		set := map[string]*result{}
		for _, w := range selected {
			res, err := runWorkload(ctx, *root, w, uint64(*seed), *seconds, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			printReport(w, res, traced)
			set[w.Name] = res
		}
		return set, nil
	}
	set, err := runSet()
	if err != nil {
		return false, err
	}
	agree = true
	if *aa {
		again, err := runSet()
		if err != nil {
			return false, err
		}
		agree = printAA(selected, set, again)
	}

	// The last line of standard output is the machine-readable result: the
	// one workload's object, or one object per workload keyed by name.
	var out any
	if len(selected) == 1 {
		out = jsonResult(set[selected[0].Name], traced)
	} else {
		all := map[string]any{}
		for _, w := range selected {
			all[w.Name] = jsonResult(set[w.Name], traced)
		}
		out = map[string]any{"workloads": all}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return agree, nil
}

// runWorkload sets up, measures one workload and tears down.
func runWorkload(ctx context.Context, root string, w workload, seed uint64, seconds int, traced bool) (*result, error) {
	e, setupS, setups, err := setUpTimed(ctx, root, w)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	var res *result
	switch {
	case w.Experiments == nil:
		res = runServe(ctx, e, seed, seconds, traced)
	case traced:
		res = runBatchTraced(ctx, e, w)
	default:
		res = runBatch(ctx, e, w, seconds)
	}
	if !traced {
		res.Values["setup_s"] = setupS
		res.Samples["setup_s"] = setups
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run did not finish within %v: %w", runBudget, err)
	}
	return res, nil
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func reported(traced bool) []metric {
	if traced {
		return perLayer()
	}
	return endToEnd
}

func jsonResult(res *result, traced bool) map[string]any {
	metrics := map[string]jsonValue{}
	for _, m := range reported(traced) {
		metrics[m.Name] = jsonValue{res.Values[m.Name], m.Unit}
	}
	return map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

func printReport(w workload, res *result, traced bool) {
	fmt.Printf("== %s (%s)\n", w.Name, w.Why)
	for _, n := range res.Notes {
		fmt.Printf("   %s\n", n)
	}
	fmt.Printf("   failed_share %d/%d = %g\n", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	for _, m := range reported(traced) {
		v := res.Values[m.Name]
		if traced && v == 0 {
			continue // a layer that did nothing on this workload
		}
		fmt.Printf("   %-34s %16.6g %-8s %s is better", m.Name, v, m.Unit, m.Better)
		if m.Bound > 0 {
			fmt.Printf(", bound %g", m.Bound)
		}
		if of := res.Alias[m.Name]; of != "" {
			fmt.Printf("  [no reading here: repeats %s]", of)
		}
		if s := res.Samples[m.Name]; len(s) > 1 {
			q1, q3 := quartiles(s)
			fmt.Printf("  [n=%d q1=%.6g q3=%.6g]", len(s), q1, q3)
		}
		fmt.Println()
	}
}

// printAA compares two runs of the same code, metric by metric, against
// each metric's own bound.
func printAA(selected []workload, a, b map[string]*result) bool {
	agree := true
	fmt.Println("== A/A: two runs of the same code")
	for _, w := range selected {
		for _, m := range endToEnd {
			x, y := a[w.Name].Values[m.Name], b[w.Name].Values[m.Name]
			diff := math.Abs(y-x) / max(math.Abs(x), math.Abs(y)) // the same for a time and for its reciprocal rate
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict, agree = "DISAGREE", false
			}
			fmt.Printf("   %-22s %-24s %14.6g %14.6g  diff %8.4f%%  bound %.3g%%  %s\n", w.Name, m.Name, x, y, diff*100, m.Bound*100, verdict)
		}
		if a[w.Name].Failed+b[w.Name].Failed > 0 {
			fmt.Printf("   %-22s failed operations: %d and %d  DISAGREE\n", w.Name, a[w.Name].Failed, b[w.Name].Failed)
			agree = false
		}
	}
	return agree
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-22s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %-8s %-6s is better, bound %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (--trace 1), no bound:")
	for _, m := range perLayer() {
		fmt.Printf("  %-34s %-8s %-6s is better\n", m.Name, m.Unit, m.Better)
	}
}
