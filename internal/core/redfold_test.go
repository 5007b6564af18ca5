package core

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// Reduction partials are contributions the directory does not know of.
// Each case below once lost one, or folded it into a stale copy.
func TestReductionFoldCases(t *testing.T) {
	for name, c := range reductionCases() {
		t.Run(name, c.check)
	}
}

// reductionCases are small programs of byteSum reductions and the tasks
// around them.
func reductionCases() map[string]matchCase {
	us := time.Microsecond
	whole, acc := memspace.Region{Size: 2 << 10}, memspace.Region{Addr: 1 << 10, Size: 1 << 10}
	cases := map[string]matchCase{}

	// The GPU that holds the only copy of a version starts an accumulator
	// inside it: the accumulator must not take those bytes, and the fold
	// must add to that version, not to the host's older one.
	cfg := baseCfg(1, 1)
	cases["accumulator_over_resident_version"] = matchCase{cfg, 2 << 10, []mixTask{
		{mixWork{w: whole, salt: 3, cost: 100 * us}, task.CUDA},
		{mixWork{w: acc, salt: 5, red: true, cost: 100 * us}, task.CUDA},
	}}

	// A write that covers part of a pending reduction: the rest of it
	// keeps the partial.
	cases["out_over_part_of_reduction"] = matchCase{cfg, 2 << 10, []mixTask{
		{mixWork{w: acc, salt: 5, red: true, cost: 100 * us}, task.CUDA},
		{mixWork{w: memspace.Region{Addr: 1 << 10, Size: 512}, salt: 7, cost: 100 * us}, task.CUDA},
	}}

	// The prefetched task is a reduction: its combiner is registered
	// where it is staged, or its partial is never folded.
	cfg = baseCfg(1, 1)
	cfg.Prefetch = true
	cases["prefetched_reduction"] = matchCase{cfg, 2 << 10, []mixTask{
		{mixWork{w: memspace.Region{Size: 512}, salt: 3, cost: 500 * us}, task.CUDA},
		{mixWork{w: acc, salt: 5, red: true, cost: 300 * us}, task.CUDA},
	}}

	// Slaves read the reduced region: the master folds before it stages.
	cfg = baseCfg(2, 1)
	cfg.Scheduler = sched.BreadthFirst
	prog := []mixTask{
		{mixWork{w: acc, salt: 5, red: true, cost: 100 * us}, task.CUDA},
		{mixWork{w: acc, salt: 6, red: true, cost: 100 * us}, task.SMP},
	}
	for i := uint64(0); i < 4; i++ {
		out := memspace.Region{Addr: 2<<10 + i*256, Size: 256}
		prog = append(prog, mixTask{mixWork{reads: []memspace.Region{acc}, w: out, salt: byte(i), cost: 300 * us}, task.CUDA})
	}
	cases["slave_reads_reduction"] = matchCase{cfg, 3 << 10, prog}

	// A host reduction inside a version a slave holds: once the master's
	// host adds to it, the slave's copy is stale (shrunk from FuzzRun).
	r := func(addr, size uint64) memspace.Region { return memspace.Region{Addr: addr, Size: size} }
	cases["host_reduction_inside_slave_version"] = matchCase{baseCfg(2, 1), 0x1b659, []mixTask{
		{mixWork{w: r(0x2c00, 256), salt: 240, red: true, cost: 256 * us}, task.SMP},
		{mixWork{w: r(0x9032, 37889), salt: 108, cost: 768 * us}, task.SMP},
		{mixWork{w: r(0xf400, 256), salt: 235, red: true, cost: 768 * us}, task.SMP},
		{mixWork{reads: []memspace.Region{r(0xeb07, 30976)}, w: r(0xc859, 60672), salt: 245, cost: 768 * us}, task.SMP},
	}}
	return cases
}
