// Command ompss-serve runs the resident experiment service: the
// internal/bench harness behind an HTTP API with a content-hash result
// cache, request deduplication, a bounded worker pool and streaming
// progress (see DESIGN.md §12 and EXPERIMENTS.md "Serving experiments").
//
// Default mode listens until SIGINT/SIGTERM, then drains gracefully.
// -selftest boots a private server on an ephemeral port, drives the
// canonical cold+warm load test against it, prints the JSON report, and
// fails unless the warm burst was served almost entirely from cache.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bsc-repro/ompss/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers    = flag.Int("workers", 0, "experiment workers (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "admission queue depth (cold misses beyond this get 429)")
		cacheMB    = flag.Int64("cache-mb", 256, "result cache size bound in MiB")
		maxJobs    = flag.Int("max-jobs", 1024, "job table bound")
		drainSecs  = flag.Int("drain-timeout", 60, "graceful drain timeout in seconds")
		selftest   = flag.Bool("selftest", false, "run the built-in load test against a private server and exit")
		clients    = flag.Int("clients", 1000, "selftest: concurrent clients")
		requests   = flag.Int("requests", 5, "selftest: requests per client in the warm burst")
		distinct   = flag.Int("distinct", 8, "selftest: distinct configurations")
		minHitRate = flag.Float64("min-hit-rate", 0.99, "selftest: required warm hit rate")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:       *addr,
		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheBytes: *cacheMB << 20,
		MaxJobs:    *maxJobs,
	}
	if *selftest {
		os.Exit(runSelftest(cfg, *clients, *requests, *distinct, *minHitRate))
	}
	if err := runServer(cfg, time.Duration(*drainSecs)*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "ompss-serve:", err)
		os.Exit(1)
	}
}

// runServer is the resident mode: serve until SIGINT/SIGTERM, then drain.
func runServer(cfg serve.Config, drainTimeout time.Duration) error {
	s := serve.New(cfg)
	if err := s.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ompss-serve: listening on %s (build %s, key v%s)\n",
		s.Addr(), serve.BuildID(), serve.KeyVersion)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	fmt.Fprintln(os.Stderr, "ompss-serve: draining (queued and running jobs finish; new work refused)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "ompss-serve: drained cleanly")
	return nil
}

// runSelftest boots a private server on an ephemeral port, runs the
// cold+warm load test, prints the JSON report to stdout, and gates on
// error-free completion and the warm hit rate.
func runSelftest(cfg serve.Config, clients, requests, distinct int, minHitRate float64) int {
	cfg.Addr = "127.0.0.1:0"
	s := serve.New(cfg)
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: start:", err)
		return 1
	}
	rep, err := serve.RunLoad(serve.LoadOptions{
		BaseURL:  s.URL(),
		Clients:  clients,
		Requests: requests,
		Distinct: distinct,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest: load:", err)
		return 1
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: drain:", err)
		return 1
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)

	code := 0
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "selftest: FAIL: %d request errors\n", rep.Errors)
		code = 1
	}
	if rep.HitRate < minHitRate {
		fmt.Fprintf(os.Stderr, "selftest: FAIL: warm hit rate %.4f < %.4f\n", rep.HitRate, minHitRate)
		code = 1
	}
	if code == 0 {
		fmt.Fprintf(os.Stderr, "selftest: OK: %d clients, %d warm requests, hit rate %.4f, %.0f req/s warm\n",
			rep.Clients, rep.WarmRequests, rep.HitRate, rep.WarmRPS)
	}
	return code
}
