package depgraph

import (
	"testing"
	"testing/quick"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

var nextID task.ID

func mk(name string, deps ...task.Dep) *task.Task {
	nextID++
	return &task.Task{ID: nextID, Name: name, Deps: deps}
}

// reg maps a small test key to a disjoint 64-byte region. Keys used to be
// raw addresses; now that conflicts are overlap-based the regions must
// actually be disjoint for distinct keys.
func reg(addr uint64) memspace.Region { return memspace.Region{Addr: addr * 64, Size: 64} }

func in(addr uint64) task.Dep    { return task.Dep{Region: reg(addr), Access: task.In} }
func out(addr uint64) task.Dep   { return task.Dep{Region: reg(addr), Access: task.Out} }
func inout(addr uint64) task.Dep { return task.Dep{Region: reg(addr), Access: task.InOut} }

type tracker struct {
	g     *Graph
	ready []string
}

func newTracker() *tracker {
	tr := &tracker{}
	tr.g = New(func(t *task.Task) { tr.ready = append(tr.ready, t.Name) })
	return tr
}

func (tr *tracker) takeReady() []string {
	r := tr.ready
	tr.ready = nil
	return r
}

func names(ts []string) string {
	s := "["
	for i, n := range ts {
		if i > 0 {
			s += " "
		}
		s += n
	}
	return s + "]"
}

func TestIndependentTasksReadyImmediately(t *testing.T) {
	tr := newTracker()
	tr.g.Submit(mk("a", out(1)))
	tr.g.Submit(mk("b", out(2)))
	if got := names(tr.takeReady()); got != "[a b]" {
		t.Fatalf("ready = %s", got)
	}
}

func TestRAWChain(t *testing.T) {
	tr := newTracker()
	w := mk("writer", out(1))
	r1 := mk("reader1", in(1))
	r2 := mk("reader2", in(1))
	tr.g.Submit(w)
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	if got := names(tr.takeReady()); got != "[writer]" {
		t.Fatalf("ready = %s", got)
	}
	tr.g.Finished(w)
	if got := names(tr.takeReady()); got != "[reader1 reader2]" {
		t.Fatalf("after writer: %s", got)
	}
}

func TestWARBlocksWriter(t *testing.T) {
	tr := newTracker()
	w1 := mk("w1", out(1))
	r := mk("r", in(1))
	w2 := mk("w2", out(1))
	tr.g.Submit(w1)
	tr.g.Submit(r)
	tr.g.Submit(w2)
	tr.takeReady() // w1
	tr.g.Finished(w1)
	if got := names(tr.takeReady()); got != "[r]" {
		t.Fatalf("after w1: %s", got)
	}
	tr.g.Finished(r)
	if got := names(tr.takeReady()); got != "[w2]" {
		t.Fatalf("after r: %s", got)
	}
}

func TestWAWOrder(t *testing.T) {
	tr := newTracker()
	w1 := mk("w1", out(1))
	w2 := mk("w2", out(1))
	tr.g.Submit(w1)
	tr.g.Submit(w2)
	if got := names(tr.takeReady()); got != "[w1]" {
		t.Fatalf("ready = %s", got)
	}
	tr.g.Finished(w1)
	if got := names(tr.takeReady()); got != "[w2]" {
		t.Fatalf("after w1: %s", got)
	}
}

func TestInOutSerializesChain(t *testing.T) {
	tr := newTracker()
	ts := []*task.Task{mk("t0", inout(1)), mk("t1", inout(1)), mk("t2", inout(1))}
	for _, x := range ts {
		tr.g.Submit(x)
	}
	for i, x := range ts {
		got := names(tr.takeReady())
		want := "[" + x.Name + "]"
		if got != want {
			t.Fatalf("step %d: ready = %s, want %s", i, got, want)
		}
		tr.g.Finished(x)
	}
}

func TestReadersDontDependOnEachOther(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	tr.g.Submit(w)
	tr.g.Finished(w)
	tr.takeReady()
	r1 := mk("r1", in(1))
	r2 := mk("r2", in(1))
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	if got := names(tr.takeReady()); got != "[r1 r2]" {
		t.Fatalf("ready = %s", got)
	}
}

func TestFinishedPredecessorCreatesNoArc(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	tr.g.Submit(w)
	tr.g.Finished(w)
	tr.takeReady()
	r := mk("r", in(1))
	tr.g.Submit(r)
	if got := names(tr.takeReady()); got != "[r]" {
		t.Fatalf("reader after finished writer should be ready: %s", got)
	}
}

func TestDuplicateClausesMergeToInout(t *testing.T) {
	tr := newTracker()
	// A task that lists region 1 as both input and output acts as inout:
	// it must wait for a prior reader (WAR).
	w := mk("w", out(1))
	r := mk("r", in(1))
	weird := mk("weird", in(1), out(1))
	tr.g.Submit(w)
	tr.g.Submit(r)
	tr.g.Submit(weird)
	tr.takeReady()
	tr.g.Finished(w)
	if got := names(tr.takeReady()); got != "[r]" {
		t.Fatalf("after w: %s", got)
	}
	tr.g.Finished(r)
	if got := names(tr.takeReady()); got != "[weird]" {
		t.Fatalf("after r: %s", got)
	}
}

func TestMatmulStylePipeline(t *testing.T) {
	// C[i] accumulations must serialize per block but run across blocks.
	tr := newTracker()
	var chain0, chain1 []*task.Task
	for k := 0; k < 3; k++ {
		t0 := mk("c0", in(uint64(100+k)), inout(1))
		t1 := mk("c1", in(uint64(100+k)), inout(2))
		tr.g.Submit(t0)
		tr.g.Submit(t1)
		chain0 = append(chain0, t0)
		chain1 = append(chain1, t1)
	}
	if got := names(tr.takeReady()); got != "[c0 c1]" {
		t.Fatalf("initial: %s", got)
	}
	tr.g.Finished(chain0[0])
	tr.g.Finished(chain1[0])
	if got := names(tr.takeReady()); got != "[c0 c1]" {
		t.Fatalf("after step0: %s", got)
	}
	tr.g.Finished(chain0[1])
	tr.g.Finished(chain1[1])
	tr.g.Finished(chain0[2])
	tr.g.Finished(chain1[2])
	if tr.g.Pending() != 0 {
		t.Fatalf("pending = %d", tr.g.Pending())
	}
}

func TestSuccessors(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	r1 := mk("r1", in(1))
	r2 := mk("r2", in(1))
	tr.g.Submit(w)
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	succ := tr.g.Successors(w)
	if len(succ) != 2 || succ[0].Name != "r1" || succ[1].Name != "r2" {
		t.Fatalf("successors = %v", succ)
	}
	tr.g.Finished(w)
	if tr.g.Successors(w) != nil {
		t.Fatal("finished task should have no successors")
	}
}

func TestLastWriter(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	tr.g.Submit(w)
	if got := tr.g.LastWriter(reg(1)); got != w {
		t.Fatalf("LastWriter = %v", got)
	}
	if got := tr.g.LastWriter(reg(2)); got != nil {
		t.Fatalf("LastWriter of untouched region = %v", got)
	}
	tr.g.Finished(w)
	if got := tr.g.LastWriter(reg(1)); got != nil {
		t.Fatalf("LastWriter after finish = %v", got)
	}
}

func TestDoubleSubmitPanics(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	tr.g.Submit(w)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.g.Submit(w)
}

func TestDoubleFinishPanics(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	tr.g.Submit(w)
	tr.g.Finished(w)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.g.Finished(w)
}

func TestPartialOverlapWithinTask(t *testing.T) {
	// A task reading a region and writing a sub-range of it used to panic;
	// both clauses now coexist (the write clause claims its fragment).
	tr := newTracker()
	if err := tr.g.Submit(mk("ok",
		task.Dep{Region: memspace.Region{Addr: 1, Size: 64}, Access: task.In},
		task.Dep{Region: memspace.Region{Addr: 1, Size: 32}, Access: task.Out},
	)); err != nil {
		t.Fatalf("partial overlap rejected: %v", err)
	}
	if got := names(tr.takeReady()); got != "[ok]" {
		t.Fatalf("ready = %s", got)
	}
}

func TestPartialOverlapAcrossTasks(t *testing.T) {
	// Halo pattern: a writer of [0,64) at addr 1000, a writer of [64,128),
	// and a reader of the straddling middle [32,96) must wait for both.
	tr := newTracker()
	w1 := mk("w1", task.Dep{Region: memspace.Region{Addr: 1000, Size: 64}, Access: task.Out})
	w2 := mk("w2", task.Dep{Region: memspace.Region{Addr: 1064, Size: 64}, Access: task.Out})
	rd := mk("rd", task.Dep{Region: memspace.Region{Addr: 1032, Size: 64}, Access: task.In})
	tr.g.Submit(w1)
	tr.g.Submit(w2)
	tr.g.Submit(rd)
	if got := names(tr.takeReady()); got != "[w1 w2]" {
		t.Fatalf("ready = %s", got)
	}
	tr.g.Finished(w1)
	if got := names(tr.takeReady()); got != "[]" {
		t.Fatalf("reader released with only one writer done: %s", got)
	}
	tr.g.Finished(w2)
	if got := names(tr.takeReady()); got != "[rd]" {
		t.Fatalf("after both writers: %s", got)
	}
	// A subsequent writer overlapping the reader's range waits for it (WAR).
	w3 := mk("w3", task.Dep{Region: memspace.Region{Addr: 1032, Size: 16}, Access: task.Out})
	tr.g.Submit(w3)
	if got := names(tr.takeReady()); got != "[]" {
		t.Fatalf("overlapping writer released past reader: %s", got)
	}
	tr.g.Finished(rd)
	if got := names(tr.takeReady()); got != "[w3]" {
		t.Fatalf("after reader: %s", got)
	}
}

func TestLastWriterOverlap(t *testing.T) {
	tr := newTracker()
	w := mk("w", task.Dep{Region: memspace.Region{Addr: 500, Size: 64}, Access: task.Out})
	tr.g.Submit(w)
	// Any region overlapping the written range reports the writer.
	if got := tr.g.LastWriter(memspace.Region{Addr: 530, Size: 64}); got != w {
		t.Fatalf("LastWriter over partial overlap = %v", got)
	}
	if got := tr.g.LastWriter(memspace.Region{Addr: 564, Size: 8}); got != nil {
		t.Fatalf("LastWriter past the region = %v", got)
	}
}

// Property: for any random schedule of single-region tasks, (1) every task
// eventually becomes ready exactly once, and (2) no two writers of the same
// region are ready simultaneously.
func TestQuickNoConcurrentWriters(t *testing.T) {
	f := func(accessSeed []byte) bool {
		if len(accessSeed) > 40 {
			accessSeed = accessSeed[:40]
		}
		readyCount := make(map[task.ID]int)
		var readySet []*task.Task
		g := New(func(x *task.Task) {
			readyCount[x.ID]++
			readySet = append(readySet, x)
		})
		var all []*task.Task
		for i, b := range accessSeed {
			var d task.Dep
			switch b % 3 {
			case 0:
				d = in(7)
			case 1:
				d = out(7)
			default:
				d = inout(7)
			}
			nextID++
			x := &task.Task{ID: nextID, Name: "q", Deps: []task.Dep{d}}
			all = append(all, x)
			g.Submit(x)
			_ = i
		}
		// Drain: repeatedly finish the first ready task, checking that the
		// ready set never holds two writers of region 7.
		for len(readySet) > 0 {
			writers := 0
			for _, x := range readySet {
				if x.Deps[0].Access.Writes() {
					writers++
				}
			}
			if writers > 1 {
				return false
			}
			x := readySet[0]
			readySet = readySet[1:]
			g.Finished(x)
		}
		if g.Pending() != 0 {
			return false
		}
		for _, c := range readyCount {
			if c != 1 {
				return false
			}
		}
		return len(readyCount) == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func red(addr uint64) task.Dep { return task.Dep{Region: reg(addr), Access: task.Red} }

func TestReducersCommute(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	r1 := mk("r1", red(1))
	r2 := mk("r2", red(1))
	r3 := mk("r3", red(1))
	tr.g.Submit(w)
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	tr.g.Submit(r3)
	if got := names(tr.takeReady()); got != "[w]" {
		t.Fatalf("ready = %s", got)
	}
	// All reducers release together once the writer finishes.
	tr.g.Finished(w)
	if got := names(tr.takeReady()); got != "[r1 r2 r3]" {
		t.Fatalf("after writer: %s", got)
	}
}

func TestReaderWaitsForAllReducers(t *testing.T) {
	tr := newTracker()
	r1 := mk("r1", red(1))
	r2 := mk("r2", red(1))
	rd := mk("reader", in(1))
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	tr.g.Submit(rd)
	if got := names(tr.takeReady()); got != "[r1 r2]" {
		t.Fatalf("ready = %s", got)
	}
	tr.g.Finished(r1)
	if got := names(tr.takeReady()); got != "[]" {
		t.Fatalf("reader released early: %s", got)
	}
	tr.g.Finished(r2)
	if got := names(tr.takeReady()); got != "[reader]" {
		t.Fatalf("after reducers: %s", got)
	}
}

func TestWriterAfterReducersWaits(t *testing.T) {
	tr := newTracker()
	r1 := mk("r1", red(1))
	w := mk("w", out(1))
	tr.g.Submit(r1)
	tr.g.Submit(w)
	tr.takeReady() // r1
	tr.g.Finished(r1)
	if got := names(tr.takeReady()); got != "[w]" {
		t.Fatalf("after reducer: %s", got)
	}
}

func TestReducersAfterReaderWait(t *testing.T) {
	tr := newTracker()
	w := mk("w", out(1))
	rd := mk("reader", in(1))
	r1 := mk("r1", red(1))
	r2 := mk("r2", red(1))
	tr.g.Submit(w)
	tr.g.Submit(rd)
	tr.g.Submit(r1)
	tr.g.Submit(r2)
	tr.takeReady()
	tr.g.Finished(w)
	if got := names(tr.takeReady()); got != "[reader]" {
		t.Fatalf("after w: %s", got)
	}
	// The reducers mutate the region, so each must wait for the old
	// reader: the second as well as the first.
	tr.g.Finished(rd)
	if got := names(tr.takeReady()); got != "[r1 r2]" {
		t.Fatalf("after reader: %s", got)
	}
}

func TestNewReductionPhaseAfterRead(t *testing.T) {
	tr := newTracker()
	r1 := mk("r1", red(1))
	rd := mk("reader", in(1))
	r2 := mk("r2", red(1))
	tr.g.Submit(r1)
	tr.g.Submit(rd)
	tr.g.Submit(r2)
	tr.takeReady() // r1
	tr.g.Finished(r1)
	tr.takeReady() // reader
	// r2 belongs to a NEW reduction phase: it must wait for the reader of
	// the combined value of the first phase.
	tr.g.Finished(rd)
	if got := names(tr.takeReady()); got != "[r2]" {
		t.Fatalf("after reader: %s", got)
	}
}

func TestMixedRedAndOtherAccessErrors(t *testing.T) {
	tr := newTracker()
	if err := tr.g.Submit(mk("bad", red(1), in(1))); err == nil {
		t.Fatal("expected error for mixed reduction/input clauses")
	}
	if tr.g.Pending() != 0 {
		t.Fatal("rejected task must not enter the graph")
	}
	// A reduction clause partially overlapping another clause of the same
	// task is also rejected, by normalize directly and through Submit.
	bad := []task.Dep{
		{Region: memspace.Region{Addr: 1, Size: 64}, Access: task.Red},
		{Region: memspace.Region{Addr: 33, Size: 64}, Access: task.In},
	}
	if _, err := normalize(bad); err == nil {
		t.Fatal("normalize must reject a partially overlapping reduction")
	}
	if err := tr.g.Submit(mk("bad2", bad...)); err == nil {
		t.Fatal("expected error for partially overlapping reduction")
	}
}

func TestCrossTaskReductionOverlapErrors(t *testing.T) {
	tr := newTracker()
	if err := tr.g.Submit(mk("r1", red(1))); err != nil {
		t.Fatalf("r1: %v", err)
	}
	// A second reduction over a different, overlapping region cannot
	// commute with the pending one.
	shifted := task.Dep{Region: memspace.Region{Addr: reg(1).Addr + 32, Size: 64}, Access: task.Red}
	if err := tr.g.Submit(mk("r2", shifted)); err == nil {
		t.Fatal("expected error for overlapping reduction regions across tasks")
	}
	// The exact same region still commutes.
	if err := tr.g.Submit(mk("r3", red(1))); err != nil {
		t.Fatalf("r3: %v", err)
	}
}

func TestNormalizeMergesAndDrops(t *testing.T) {
	got, err := normalize([]task.Dep{
		{Region: memspace.Region{}, Access: task.In}, // invalid: dropped
		in(5), out(5), // merges to inout
		in(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Access != task.InOut || got[0].Region != reg(5) || got[1].Access != task.In {
		t.Fatalf("normalize = %v", got)
	}
}
