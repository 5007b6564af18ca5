package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// mixWork writes salt plus the (wrapped) sum of its read regions into w.
// Inputs are snapshotted before writing because read and write regions may
// alias arbitrary byte ranges of the same arena. With accum set the old
// contents of w join the sum (an InOut body). With red set, w is a
// reduction under byteSum: the sum is added to what w holds, a private
// accumulator on a GPU, so no read may overlap w.
type mixWork struct {
	reads []memspace.Region
	w     memspace.Region
	salt  byte
	accum bool
	red   bool
	cost  time.Duration
}

// byteSum is mixWork's reduction combiner: wrapping byte addition, which
// folds partials in any order to the serial bytes.
func byteSum(acc, partial []byte) {
	for i := range acc {
		acc[i] += partial[i]
	}
}

func (w mixWork) Name() string                      { return "mix" }
func (w mixWork) GPUCost(hw.GPUSpec) time.Duration  { return w.cost }
func (w mixWork) CPUCost(hw.NodeSpec) time.Duration { return w.cost * 3 }
func (w mixWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	snaps := make([][]byte, len(w.reads))
	for i, r := range w.reads {
		snaps[i] = append([]byte(nil), store.Bytes(r)...)
	}
	accum := w.accum || w.red
	var old []byte
	if accum {
		old = append([]byte(nil), store.Bytes(w.w)...)
	}
	out := store.Bytes(w.w)
	for i := range out {
		v := w.salt
		for _, s := range snaps {
			v += s[i%len(s)]
		}
		if accum {
			v += old[i]
		}
		out[i] = v
	}
}

// deps lists w's clauses: In on every read region, then Red, InOut
// (accum) or Out on the written one.
func (w mixWork) deps() []task.Dep {
	deps := make([]task.Dep, 0, len(w.reads)+1)
	for _, r := range w.reads {
		deps = append(deps, inDep(r))
	}
	if w.red {
		return append(deps, task.Dep{Region: w.w, Access: task.Red})
	}
	if w.accum {
		return append(deps, inoutDep(w.w))
	}
	return append(deps, outDep(w.w))
}

// at returns w with its regions, given relative to an arena, moved to the
// arena at base.
func (w mixWork) at(base uint64) mixWork {
	at := func(r memspace.Region) memspace.Region { return memspace.Region{Addr: base + r.Addr, Size: r.Size} }
	out := w
	out.reads = make([]memspace.Region, len(w.reads))
	for i, r := range w.reads {
		out.reads[i] = at(r)
	}
	out.w = at(w.w)
	return out
}

// mixTask is one task of a program checked by matchSerial.
type mixTask struct {
	w   mixWork // regions relative to the arena
	dev task.Device
}

// matchCase is a program and the machine matchSerial runs it on.
type matchCase struct {
	cfg   Config
	arena uint64
	prog  []mixTask
}

func (c matchCase) check(t *testing.T) {
	t.Helper()
	matchSerial(t, c.cfg, c.arena, c.prog)
}

// matchSerial runs prog through the full runtime under cfg over an arena of
// arenaN bytes, then the same bodies serially in submit order on one host
// store, and fails t at the first arena byte that differs.
func matchSerial(t *testing.T, cfg Config, arenaN uint64, prog []mixTask) {
	t.Helper()
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(i * 7)
		}
	}
	var arena memspace.Region
	var got []byte
	_, err := New(cfg).Run(func(mc *MainCtx) {
		arena = mc.Alloc(arenaN)
		mc.InitSeq(arena, fill)
		for i, mt := range prog {
			w := mt.w.at(arena.Addr)
			def := TaskDef{Name: fmt.Sprintf("mix%d", i), Device: mt.dev, Deps: w.deps(), Work: w}
			if w.red {
				def.Reductions = map[uint64]task.Combiner{w.w.Addr: byteSum}
			}
			mc.Submit(def)
		}
		mc.TaskWait()
		got = append([]byte(nil), mc.HostBytes(arena)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := memspace.NewStore(memspace.Host(0))
	fill(serial.Bytes(arena))
	for _, mt := range prog {
		mt.w.at(arena.Addr).Run(serial)
	}
	want := serial.Bytes(arena)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arena byte %d differs: runtime %d, serial %d", i, got[i], want[i])
		}
	}
}

// TestRandomOverlapGraphMatchesSerial is the fragment model's property
// test: random task graphs whose dependence regions overlap at arbitrary
// byte ranges must produce, through the full runtime (caches, directory,
// cluster transfers), exactly the bytes the same tasks produce when run
// serially in submit order. Seeded and deterministic. In the seed-5 case
// 1 KiB devices evict dirty lines throughout, with overlapping transfers
// queued.
func TestRandomOverlapGraphMatchesSerial(t *testing.T) {
	for _, tc := range overlapShapes {
		t.Run(fmt.Sprintf("%dnode%dgpu_seed%d", tc.nodes, tc.gpus, tc.seed), func(t *testing.T) {
			cfg := baseCfg(tc.nodes, tc.gpus)
			cfg.Cluster = testCluster(tc.nodes, tc.gpus, tc.devMem)
			matchSerial(t, cfg, overlapArena, overlapProgram(tc.seed, 48))
		})
	}
}

// overlapShapes are TestRandomOverlapGraphMatchesSerial's machines and
// program seeds.
var overlapShapes = []struct {
	nodes, gpus int
	seed        int64
	devMem      uint64
}{{1, 2, 1, 1 << 26}, {2, 1, 2, 1 << 26}, {2, 2, 3, 1 << 26}, {4, 1, 4, 1 << 26}, {1, 2, 5, 1 << 10}}

// overlapArena is the arena overlapProgram's regions fall in.
const overlapArena = 4096

// overlapProgram returns n seeded tasks over 16–256-byte sub-ranges of
// overlapArena bytes: each reads one or two and writes one (InOut or
// Out); every seventh is SMP, the rest CUDA.
func overlapProgram(seed int64, n int) []mixTask {
	rng := rand.New(rand.NewSource(seed))
	randRange := func() memspace.Region {
		size := 16 + rng.Intn(241)
		return memspace.Region{Addr: uint64(rng.Intn(overlapArena - size)), Size: uint64(size)}
	}
	prog := make([]mixTask, n)
	for i := range prog {
		w := &prog[i].w
		for r := 0; r < 1+rng.Intn(2); r++ {
			w.reads = append(w.reads, randRange())
		}
		w.w = randRange()
		w.salt = byte(i*13 + 7)
		w.accum = rng.Intn(2) == 0
		w.cost = time.Duration(i%5+1) * 100 * time.Microsecond
		prog[i].dev = task.CUDA
		if i%7 == 0 {
			prog[i].dev = task.SMP
		}
	}
	return prog
}

// fragmentFixtureRun executes a workload whose consumer region must be
// assembled from two holder fragments: a GPU produces the left half of an
// initialized region, then a host task reads the whole region. One node
// keeps the assembly on the local D2H gather path, where the "assemble"
// span is emitted (cluster assemblies surface as per-fragment net spans).
func fragmentFixtureRun(t *testing.T) (Stats, *trace.Recorder) {
	t.Helper()
	cfg := baseCfg(1, 2)
	rec := trace.New()
	cfg.Trace = rec
	rt := New(cfg)
	stats, err := rt.Run(func(mc *MainCtx) {
		r := mc.Alloc(1 << 16)
		mc.InitSeq(r, nil)
		left := memspace.Region{Addr: r.Addr, Size: r.Size / 2}
		mc.Submit(TaskDef{Name: "left", Device: task.CUDA,
			Deps: []task.Dep{inoutDep(left)},
			Work: incWork{r: left, delta: 1, cost: time.Millisecond}})
		mc.Submit(TaskDef{Name: "whole", Device: task.SMP,
			Deps: []task.Dep{inDep(r)},
			Work: incWork{r: r, delta: 0, cost: time.Millisecond}})
		mc.TaskWait()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, rec
}

// TestFragmentAssemblyCounterAndSpans checks the observability of the
// fragment paths: assembling a consumer region from several holder
// fragments counts in Stats.FragmentAssemblies and emits "assemble"
// transfer spans, and the Perfetto export of such a run stays
// bit-identical across identical runs.
func TestFragmentAssemblyCounterAndSpans(t *testing.T) {
	var perfettos []string
	for i := 0; i < 2; i++ {
		stats, rec := fragmentFixtureRun(t)
		if stats.FragmentAssemblies == 0 {
			t.Fatal("FragmentAssemblies stayed zero on a fragmented workload")
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "assemble") {
			t.Fatal("no assemble spans in the Perfetto export")
		}
		perfettos = append(perfettos, buf.String())
	}
	if perfettos[0] != perfettos[1] {
		t.Fatal("perfetto export diverged between identical fragmented runs")
	}
}

// TestExactMatchRunsEmitNoFragmentActivity pins the degeneracy the
// refactor promises: a workload whose regions only ever match exactly
// takes the seed code paths — no assemblies counted, no assemble spans.
func TestExactMatchRunsEmitNoFragmentActivity(t *testing.T) {
	stats, rec := tracedFixtureRun(t)
	if stats.FragmentAssemblies != 0 {
		t.Fatalf("FragmentAssemblies = %d on an exact-match workload", stats.FragmentAssemblies)
	}
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "assemble") {
		t.Fatal("assemble spans emitted on an exact-match workload")
	}
}
