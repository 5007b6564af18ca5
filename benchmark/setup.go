package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how often a run sets up from scratch; setup_s is the
// median, so one slow link or cold page cache does not decide it.
const setupRepeats = 3

// env is one completed set-up: freshly built binaries in a scratch
// directory, the workload's goldens, and for serve_mixed a seeded server.
type env struct {
	root   string // the checkout
	dir    string // scratch directory, removed by close
	bench  string // ompss-bench binary
	serve  string // ompss-serve binary
	golden map[string][]row
	server *server // serve_mixed only
}

func (e *env) close() {
	if e.server != nil {
		e.server.stop()
	}
	os.RemoveAll(e.dir)
}

// setUp builds both binaries from the checkout's source, loads the
// goldens, and warms up: a quick-size run of a batch workload's first
// experiment, which pages the binary in, or for serve_mixed a started
// server with its hot set seeded.
func setUp(ctx context.Context, root string, w workload) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		dir:    dir,
		bench:  filepath.Join(dir, "ompss-bench"),
		serve:  filepath.Join(dir, "ompss-serve"),
		golden: map[string][]row{},
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	goBuild := []string{"-C", root, "build", "-o", dir + string(filepath.Separator), "./cmd/ompss-bench", "./cmd/ompss-serve"}
	if _, _, err := runChild(ctx, 15*time.Minute, nil, "go", goBuild...); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	for _, x := range w.Experiments {
		rows, err := readCSVFile(filepath.Join(root, "benchmark", "golden", x.Name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		e.golden[x.Name] = rows
	}

	if w.Experiments != nil {
		x := w.Experiments[0]
		if _, _, err := runChild(ctx, x.timeout(), nil, e.bench, "-experiment", x.Name, "-quick", "-parallel", "1"); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	} else if e.server, err = startServer(ctx, e); err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	ok = true
	return e, nil
}

// setUpTimed sets up setupRepeats times, keeps the last, and returns the
// median duration in seconds along with every sample.
func setUpTimed(ctx context.Context, root string, w workload) (*env, float64, []float64, error) {
	var (
		e       *env
		samples []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(ctx, root, w); err != nil {
			return nil, 0, nil, err
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return e, median(samples), samples, nil
}

// timeout is ten times the experiment's recorded duration, and never so
// short that a start-up hiccup on a loaded machine reads as a hang.
func (x experiment) timeout() time.Duration {
	return max(time.Duration(10*x.NominalS*float64(time.Second)), 10*time.Second)
}
