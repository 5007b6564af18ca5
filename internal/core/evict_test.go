package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// blockProgram returns n seeded CUDA tasks over blocks aligned, disjoint
// regions of bs bytes: each reads up to two blocks (In) and writes a third
// (InOut or Out). Regions match exactly, so no fragment ever forms.
func blockProgram(seed int64, n, blocks int, bs uint64) []mixTask {
	rng := rand.New(rand.NewSource(seed))
	blk := func(b int) memspace.Region { return memspace.Region{Addr: uint64(b) * bs, Size: bs} }
	prog := make([]mixTask, n)
	for i := range prog {
		perm := rng.Perm(blocks)
		w := &prog[i].w
		nr := rng.Intn(3)
		for _, b := range perm[:nr] {
			w.reads = append(w.reads, blk(b))
		}
		w.w = blk(perm[nr])
		w.salt = byte(i*13 + 7)
		w.accum = rng.Intn(2) == 0
		w.cost = time.Duration(i%5+1) * 100 * time.Microsecond
		prog[i].dev = task.CUDA
	}
	return prog
}

// TestEvictionOfAlignedBlocksMatchesSerial runs alignedEviction.
func TestEvictionOfAlignedBlocksMatchesSerial(t *testing.T) { alignedEviction().check(t) }

// alignedEviction is an exact-match program on two GPUs whose 8 KiB hold
// seven of its sixteen 1 KiB blocks, so write-back evicts dirty lines while
// other transfers of the same blocks are queued. An eviction's copy is
// ordered by no dependence, so dropping the line must not take the bytes a
// reader's queued D2H has yet to land.
func alignedEviction() matchCase {
	const bs = 1 << 10
	cfg := baseCfg(1, 2)
	cfg.Cluster = testCluster(1, 2, 8<<10)
	return matchCase{cfg, 16 * bs, blockProgram(24, 15, 16, bs)}
}

// TestHostWriteDuringEvictionCopy runs hostWriteDuringEvictionCopy.
func TestHostWriteDuringEvictionCopy(t *testing.T) { hostWriteDuringEvictionCopy().check(t) }

// hostWriteDuringEvictionCopy lands a host SMP Out task while the GPU's
// write-back of the previous version of the same block is on the wire.
// The copy must not overwrite the host's newer bytes, nor register the
// host as holding what it copied.
func hostWriteDuringEvictionCopy() matchCase {
	const bs = 1 << 20 // a long D2H: about 220 µs on the test GPU
	cfg := baseCfg(1, 1)
	cfg.Cluster = testCluster(1, 1, 3*bs/2) // room for one block
	a, b := memspace.Region{Size: bs}, memspace.Region{Addr: bs, Size: bs}
	return matchCase{cfg, 2 * bs, []mixTask{
		{mixWork{w: a, salt: 1, accum: true, cost: 100 * time.Microsecond}, task.CUDA},
		// Evicts a, dirty: the eviction's bookkeeping, then its D2H.
		{mixWork{w: b, salt: 2, accum: true, cost: 100 * time.Microsecond}, task.CUDA},
		// Ready when the first task ends; ends inside that D2H.
		{mixWork{w: a, salt: 3, cost: 85 * time.Microsecond}, task.SMP},
	}}
}

// TestReaderAfterEvictionOfOldVersion runs readerAfterEviction.
func TestReaderAfterEvictionOfOldVersion(t *testing.T) { readerAfterEviction().check(t) }

// readerAfterEviction has a host reader join the in-flight write-back of a
// block whose newer version another GPU produced during that copy. The
// copy lands nothing, so the reader must plan its own D2H from the new
// holder instead of taking the joined transfer as done.
func readerAfterEviction() matchCase {
	const bs = 1 << 20
	cfg := baseCfg(1, 2)
	cfg.Scheduler = sched.Affinity
	cfg.Cluster = testCluster(1, 2, 3*bs/2) // room for one block
	a, b := memspace.Region{Size: bs}, memspace.Region{Addr: bs, Size: bs}
	c, d := memspace.Region{Addr: 2 * bs, Size: 1 << 10}, memspace.Region{Addr: 2*bs + 1<<10, Size: 1 << 10}
	return matchCase{cfg, 2*bs + 2<<10, []mixTask{
		{mixWork{w: a, salt: 1, accum: true, cost: 100 * time.Microsecond}, task.CUDA},
		// Reads a where it lives, so the next task follows it to that GPU.
		{mixWork{reads: []memspace.Region{a}, w: c, salt: 9, cost: 10 * time.Microsecond}, task.CUDA},
		// Evicts a, dirty.
		{mixWork{reads: []memspace.Region{c}, w: b, salt: 2, accum: true, cost: 100 * time.Microsecond}, task.CUDA},
		// On the other GPU, ends inside the eviction's D2H.
		{mixWork{w: a, salt: 3, cost: 260 * time.Microsecond}, task.CUDA},
		{mixWork{reads: []memspace.Region{a}, w: d, salt: 4, cost: 10 * time.Microsecond}, task.SMP},
	}}
}
