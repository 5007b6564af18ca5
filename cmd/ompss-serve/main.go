// Command ompss-serve runs the resident experiment service: the
// internal/bench harness behind an HTTP API with a content-hash result
// cache, request deduplication, a bounded worker pool and streaming
// progress (see DESIGN.md §12 and EXPERIMENTS.md "Serving experiments").
//
// It listens until SIGINT/SIGTERM, then drains gracefully.
package main

import (
	"context"
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
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:       *addr,
		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheBytes: *cacheMB << 20,
		MaxJobs:    *maxJobs,
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
