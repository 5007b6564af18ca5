package core

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/coherence"
	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// A line that a task pins leaves its cache neither by a write policy nor
// by a sweep: the next three tests each removed a pinned line once.

// TestNoCacheKeepsPrefetchedLine runs noCachePrefetch.
func TestNoCacheKeepsPrefetchedLine(t *testing.T) { noCachePrefetch().check(t) }

// noCachePrefetch has the prefetched second task pin the input it shares
// with the first before the first publishes. No-cache drops every line of
// a finished task, but not that one.
func noCachePrefetch() matchCase {
	cfg := baseCfg(1, 1)
	cfg.CachePolicy, cfg.Prefetch = coherence.NoCache, true
	in := memspace.Region{Size: 1 << 10}
	return matchCase{cfg, 3 << 10, []mixTask{
		{mixWork{reads: []memspace.Region{in}, w: memspace.Region{Addr: 1 << 10, Size: 1 << 10}, salt: 1, cost: 100 * time.Microsecond}, task.CUDA},
		{mixWork{reads: []memspace.Region{in}, w: memspace.Region{Addr: 2 << 10, Size: 1 << 10}, salt: 2, cost: 100 * time.Microsecond}, task.CUDA},
	}}
}

// TestArrivalSweepKeepsPinnedLine runs resentFragment.
func TestArrivalSweepKeepsPinnedLine(t *testing.T) { resentFragment().check(t) }

// resentFragment is a shrunk random program on 2 nodes of 2 GPUs whose
// master plan sends a slave a covering fragment again after the slave
// already holds part of it. The arrival is a new version to the slave's
// directory, and its sweep must not remove the line that the slave's
// running task pins.
func resentFragment() matchCase {
	cfg := baseCfg(2, 2)
	cfg.Scheduler, cfg.CachePolicy = sched.BreadthFirst, coherence.WriteThrough
	cfg.Presend, cfg.ManagerOpCost = 2, 2*time.Microsecond
	r := func(addr, size uint64) memspace.Region { return memspace.Region{Addr: addr, Size: size} }
	rs := func(r ...memspace.Region) []memspace.Region { return r }
	us := time.Microsecond
	return matchCase{cfg, 16 << 10, []mixTask{
		{mixWork{reads: rs(r(0x2cb, 853)), w: r(0x21ea, 958), salt: 7, cost: 100 * us}, task.CUDA},
		{mixWork{reads: rs(r(0x1695, 643), r(0x223c, 28)), w: r(0x7d3, 501), salt: 20, cost: 200 * us}, task.CUDA},
		{mixWork{reads: rs(r(0x3b3f, 348), r(0x48c, 223)), w: r(0x326e, 1005), salt: 33, accum: true, cost: 300 * us}, task.CUDA},
		{mixWork{reads: rs(r(0x141c, 132), r(0x1e7d, 435)), w: r(0x1002, 912), salt: 46, accum: true, cost: 400 * us}, task.CUDA},
		{mixWork{reads: rs(r(0x2905, 355)), w: r(0x1e7, 516), salt: 59, accum: true, cost: 500 * us}, task.CUDA},
		{mixWork{reads: rs(r(0x2166, 785)), w: r(0x2892, 75), salt: 98, cost: 300 * us}, task.CUDA},
	}}
}

// TestReplaySweepKeepsPinnedLine crashes slave 2 of chainRun's workload at
// 1 GPU per node at the point where, while replayed producers ran on the
// master's GPU, a completion report's sweep removed a line pinned for one.
// The run must be checksum-exact and replay bit-identically.
func TestReplaySweepKeepsPinnedLine(t *testing.T) {
	plan := func() *faults.Plan {
		return &faults.Plan{Seed: 5, Crashes: []faults.Crash{{Node: 2, At: 3228068 * time.Nanosecond}}}
	}
	stats, results := chainRun(t, 1, true, 1, plan(), nil)
	checkAll(t, results, chainRounds)
	if again, _ := chainRun(t, 1, true, 1, plan(), nil); again != stats {
		t.Fatalf("the replay diverged:\n%s\nvs\n%s", stats, again)
	}
}
