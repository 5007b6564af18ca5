// Command ompss-bench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints the rows/series the paper plots.
//
// Usage:
//
//	ompss-bench -experiment fig5          # one figure, paper-scale sizes
//	ompss-bench -experiment all -quick    # everything, reduced sizes
//	ompss-bench -experiment all -parallel 0   # fan grid points over all cores
//	ompss-bench -experiment fig10 -quick -trace out.json  # Perfetto trace + critical path
//	ompss-bench -list                     # enumerate experiments
//
// Every grid point simulates on its own engine, so -parallel N runs N
// points concurrently with bit-identical output to a sequential run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/bsc-repro/ompss/internal/bench"
	"github.com/bsc-repro/ompss/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (fig5..fig13, table1, stress, weakscale, powercap, all)")
		quick      = flag.Bool("quick", false, "reduced problem sizes (seconds instead of minutes)")
		list       = flag.Bool("list", false, "list experiments and exit")
		csvPath    = flag.String("csv", "", "also write all rows to this CSV file")
		tracePath  = flag.String("trace", "", "write a Perfetto/Chrome trace of the experiment's designated grid point to this file and print its critical path")
		wallPath   = flag.String("walltime", "", "write {\"ms\":...,\"workers\":...} wall-clock JSON to this file")
		parallel   = flag.Int("parallel", 1, "grid points simulated concurrently (0 = GOMAXPROCS)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		width      = flag.Int("stress-width", 0, "stress: independent regions per layer (0 = default grid)")
		depth      = flag.Int("stress-depth", 0, "stress: layers of chained tasks (0 = default grid)")
		overlap    = flag.Int("stress-overlap", 0, "stress: every Nth column straddles a fragment boundary (0 = none)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		for _, e := range bench.Extras() {
			fmt.Printf("%-8s %s (excluded from \"all\")\n", e.Name, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := bench.Options{
		Quick: *quick, Parallel: workers,
		StressWidth: *width, StressDepth: *depth, StressOverlap: *overlap,
	}
	if *tracePath != "" {
		opts.Trace = trace.New()
	}
	var todo []bench.Experiment
	if *experiment == "all" {
		todo = bench.All()
	} else {
		e, ok := bench.ByName(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *experiment)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	var all []bench.Row
	suiteStart := time.Now()
	for _, e := range todo {
		fmt.Printf("== %s: %s\n", e.Name, e.Title)
		start := time.Now()
		rows, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, r := range rows {
			fmt.Println(r)
		}
		all = append(all, rows...)
		fmt.Printf("-- %s: %d rows in %v\n\n", e.Name, len(rows), time.Since(start).Round(time.Millisecond))
	}
	elapsed := time.Since(suiteStart)
	if *csvPath != "" {
		if err := writeCSV(*csvPath, all); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d rows to %s\n", len(all), *csvPath)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, opts.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *wallPath != "" {
		if err := writeWalltime(*wallPath, elapsed, workers); err != nil {
			fmt.Fprintf(os.Stderr, "walltime: %v\n", err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace exports the recorded timeline as Perfetto/Chrome trace-event
// JSON and prints the critical-path report. An empty recorder means the
// experiments run had no designated trace point; that is an error so CI
// notices a silently missing trace.
func writeTrace(path string, rec *trace.Recorder) (err error) {
	if rec.Len() == 0 {
		return fmt.Errorf("no spans recorded; -trace needs an experiment with a trace point (fig10)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := rec.WritePerfetto(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d trace spans to %s\n\n", rec.Len(), path)
	return rec.CriticalPath(5).WriteText(os.Stdout)
}

// writeWalltime records the suite's host wall-clock, measured inside the
// process, for the benchmark/ harness (its per-experiment inside time).
func writeWalltime(path string, elapsed time.Duration, workers int) error {
	data := fmt.Sprintf("{\"ms\":%d,\"workers\":%d}\n", elapsed.Milliseconds(), workers)
	return os.WriteFile(path, []byte(data), 0o644)
}

// writeCSV dumps rows via the shared bench.EncodeCSV encoder (the same
// bytes ompss-serve memoizes). The file close error is propagated: a full
// disk must not silently truncate results.
func writeCSV(path string, rows []bench.Row) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return bench.EncodeCSV(f, rows)
}
