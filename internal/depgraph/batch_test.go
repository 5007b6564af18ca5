package depgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// arcLog records every realized arc plus every onReady firing, in order —
// the full observable behavior of a submission sequence.
type arcLog struct {
	g      *Graph
	events []string
}

func newArcLog() *arcLog {
	l := &arcLog{}
	l.g = New(func(t *task.Task) { l.events = append(l.events, "ready:"+t.Name) })
	l.g.OnArc = func(pred, succ task.ID) {
		l.events = append(l.events, fmt.Sprintf("arc:%d->%d", pred, succ))
	}
	return l
}

func rawDep(addr, size uint64, a task.Access) task.Dep {
	return task.Dep{Region: memspace.Region{Addr: addr, Size: size}, Access: a}
}

// cloneTasks duplicates a task list so two graphs can consume the same
// workload: a task is its own graph node, so it is in one graph at a time.
func cloneTasks(ts []*task.Task) []*task.Task {
	out := make([]*task.Task, len(ts))
	for i, t := range ts {
		cp := *t
		out[i] = &cp
	}
	return out
}

// submitBoth runs the same tasks through one-at-a-time Submit and through
// SubmitBatch and asserts the observable event streams are identical.
func submitBoth(t *testing.T, ts []*task.Task) {
	t.Helper()
	seq := newArcLog()
	for _, tk := range cloneTasks(ts) {
		if err := seq.g.Submit(tk); err != nil {
			t.Fatalf("sequential Submit(%v): %v", tk, err)
		}
	}
	bat := newArcLog()
	n, err := bat.g.SubmitBatch(cloneTasks(ts))
	if err != nil || n != len(ts) {
		t.Fatalf("SubmitBatch: accepted %d/%d, err %v", n, len(ts), err)
	}
	if len(seq.events) != len(bat.events) {
		t.Fatalf("event count: sequential %d, batched %d\nseq: %v\nbat: %v",
			len(seq.events), len(bat.events), seq.events, bat.events)
	}
	for i := range seq.events {
		if seq.events[i] != bat.events[i] {
			t.Fatalf("event %d: sequential %q, batched %q", i, seq.events[i], bat.events[i])
		}
	}
	if len(seq.g.frags.All()) != len(bat.g.frags.All()) {
		t.Fatalf("fragments: sequential %d, batched %d", len(seq.g.frags.All()), len(bat.g.frags.All()))
	}
}

// TestBatchSplitsOnFragmentEdges exercises bounds landing exactly on
// existing fragment edges: the second batch's regions start and end
// precisely where the first batch's fragments do, so every bound is a
// no-op and no extra fragment appears.
func TestBatchSplitsOnFragmentEdges(t *testing.T) {
	ts := []*task.Task{
		mk("w0", rawDep(0, 128, task.Out)),
		mk("w1", rawDep(128, 128, task.Out)),
		// Exactly re-covering the same fragments:
		mk("r0", rawDep(0, 128, task.In)),
		mk("r1", rawDep(128, 128, task.In)),
		// Exactly spanning both (bounds at 0, 128, 256 — all edges):
		mk("rw", rawDep(0, 256, task.InOut)),
	}
	submitBoth(t, ts)
	bat := newArcLog()
	if _, err := bat.g.SubmitBatch(cloneTasks(ts)); err != nil {
		t.Fatal(err)
	}
	if got := len(bat.g.frags.All()); got != 2 {
		t.Fatalf("fragments after edge-aligned batch = %d, want 2", got)
	}
}

// TestBatchAdjacentRegions covers adjacent (touching, non-overlapping)
// regions in one batch: [0,64) and [64,128) share the bound 64, which must
// not split either fragment or create arcs between their tasks.
func TestBatchAdjacentRegions(t *testing.T) {
	ts := []*task.Task{
		mk("left", rawDep(0, 64, task.Out)),
		mk("right", rawDep(64, 64, task.Out)),
		mk("leftr", rawDep(0, 64, task.In)),
		mk("rightr", rawDep(64, 64, task.In)),
		// A spanning reader picks up both writers.
		mk("span", rawDep(0, 128, task.In)),
	}
	submitBoth(t, ts)
	bat := newArcLog()
	if _, err := bat.g.SubmitBatch(cloneTasks(ts)); err != nil {
		t.Fatal(err)
	}
	// Adjacency must not merge or split: exactly the two declared regions.
	if got := len(bat.g.frags.All()); got != 2 {
		t.Fatalf("fragments = %d, want 2", got)
	}
}

// TestBatchPartialOverlaps covers bounds strictly inside fragments,
// straddling splits, and gap regions in one batch.
func TestBatchPartialOverlaps(t *testing.T) {
	ts := []*task.Task{
		mk("a", rawDep(0, 100, task.Out)),
		mk("b", rawDep(50, 100, task.InOut)), // splits a's fragment at 50 and 100
		mk("c", rawDep(25, 25, task.In)),     // inside a's left half
		mk("d", rawDep(300, 50, task.Out)),   // disjoint, in a gap
		mk("e", rawDep(90, 250, task.In)),    // spans b's tail, the gap, and d
	}
	submitBoth(t, ts)
}

// TestBatchStopsAtMalformedTask checks sequential-equivalent error
// semantics: tasks before the malformed one land in the graph, the rest
// don't, and the error names the offender.
func TestBatchStopsAtMalformedTask(t *testing.T) {
	bad := mk("bad",
		task.Dep{Region: memspace.Region{Addr: 0, Size: 64}, Access: task.Red},
		task.Dep{Region: memspace.Region{Addr: 32, Size: 64}, Access: task.In})
	ts := []*task.Task{
		mk("ok1", rawDep(0, 64, task.Out)),
		mk("ok2", rawDep(64, 64, task.Out)),
		bad,
		mk("never", rawDep(128, 64, task.Out)),
	}
	l := newArcLog()
	n, err := l.g.SubmitBatch(ts)
	if err == nil || n != 2 {
		t.Fatalf("SubmitBatch = %d, %v; want 2 accepted and an error", n, err)
	}
	if l.g.Pending() != 2 {
		t.Fatalf("Pending = %d after partial batch, want 2", l.g.Pending())
	}
}

// TestSubmitBatchCostsWhatSubmitCosts pins the per-task side tables that
// are gone: normalize hands a canonical clause list back as it is, and
// submitting a task as a batch of one — what every ctx.Task does —
// allocates exactly what Submit does.
func TestSubmitBatchCostsWhatSubmitCosts(t *testing.T) {
	deps := []task.Dep{rawDep(0, 64, task.In), rawDep(64, 64, task.InOut)}
	if got, err := normalize(deps); err != nil || len(got) != 2 || &got[0] != &deps[0] {
		t.Fatalf("normalize of a canonical list = %v, %v; want the argument itself", got, err)
	}
	const runs = 2000
	allocs := func(submit func(*Graph, *task.Task)) float64 {
		g := New(func(*task.Task) {})
		ts := make([]*task.Task, runs+1) // AllocsPerRun warms up with one extra call
		for i := range ts {
			ts[i] = mk("c", deps...)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			submit(g, ts[i])
			i++
		})
	}
	seq := allocs(func(g *Graph, tk *task.Task) {
		if err := g.Submit(tk); err != nil {
			t.Fatal(err)
		}
	})
	bat := allocs(func(g *Graph, tk *task.Task) {
		if _, err := g.SubmitBatch([]*task.Task{tk}); err != nil {
			t.Fatal(err)
		}
	})
	if bat != seq {
		t.Fatalf("a batch of one costs %.0f allocs/task, Submit %.0f", bat, seq)
	}
}

// TestBatchMatchesSequentialProperty is the randomized equivalence
// property: for arbitrary overlapping workloads, SubmitBatch produces a
// byte-identical arc/ready stream to one-at-a-time Submit.
func TestBatchMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	accesses := []task.Access{task.In, task.Out, task.InOut}
	for trial := 0; trial < 50; trial++ {
		var ts []*task.Task
		ntasks := 1 + rng.Intn(40)
		for i := 0; i < ntasks; i++ {
			var deps []task.Dep
			for d := 0; d < 1+rng.Intn(3); d++ {
				addr := uint64(rng.Intn(1 << 10))
				size := uint64(1 + rng.Intn(128))
				deps = append(deps, rawDep(addr, size, accesses[rng.Intn(len(accesses))]))
			}
			ts = append(ts, mk(fmt.Sprintf("t%d_%d", trial, i), deps...))
		}
		submitBoth(t, ts)
	}
}

// dedupRun submits ts, then finishes ready tasks first in, first out. It
// fails the test if OnArc reports a (pred, succ) pair twice or a task is
// not released exactly once, and returns the arcs in creation order.
func dedupRun(t *testing.T, ts ...*task.Task) []string {
	t.Helper()
	var ready []*task.Task
	released := map[task.ID]int{}
	g := New(func(rt *task.Task) { ready = append(ready, rt); released[rt.ID]++ })
	var arcs []string
	seen := map[[2]task.ID]bool{}
	g.OnArc = func(pred, succ task.ID) {
		if seen[[2]task.ID{pred, succ}] {
			t.Errorf("arc %d->%d made twice", pred, succ)
		}
		seen[[2]task.ID{pred, succ}] = true
		arcs = append(arcs, fmt.Sprintf("%d->%d", pred, succ))
	}
	for _, tk := range ts {
		if err := g.Submit(tk); err != nil {
			t.Fatal(err)
		}
	}
	for len(ready) > 0 {
		rt := ready[0]
		ready = ready[1:]
		g.Finished(rt)
	}
	for _, tk := range ts {
		if released[tk.ID] != 1 {
			t.Errorf("%v released %d times, want 1", tk, released[tk.ID])
		}
	}
	return arcs
}

// A repeated arc is always its predecessor's last successor, since every
// arc into a task is made while that task is submitted: a successor whose
// clauses alternate between two predecessors gets one arc from each, a
// successor reached through a predecessor's read and its reduction gets
// one, and so does each of many successors re-reading a writer's bytes.
func TestDuplicateArcIsTheLastSuccessor(t *testing.T) {
	// P's earlier successor E sits first in P's list; S's clauses go P, Q, P.
	p := mk("p", out(1), out(3))
	e := mk("e", in(1))
	q := mk("q", out(2))
	s := mk("s", in(1), in(2), in(3))
	got := fmt.Sprint(dedupRun(t, p, e, q, s))
	want := fmt.Sprint([]string{
		fmt.Sprintf("%d->%d", p.ID, e.ID),
		fmt.Sprintf("%d->%d", p.ID, s.ID),
		fmt.Sprintf("%d->%d", q.ID, s.ID),
	})
	if got != want {
		t.Errorf("alternating clauses: arcs %s, want %s", got, want)
	}

	// Fan-in: S waits for A and B through their reads of 1 and again
	// through their reductions into 2.
	a := mk("a", in(1), red(2))
	b := mk("b", in(1), red(2))
	s = mk("s", inout(1), inout(2))
	if got := dedupRun(t, a, b, s); len(got) != 2 {
		t.Errorf("reader-plus-reducer fan-in: arcs %v, want one from each of %d and %d", got, a.ID, b.ID)
	}

	// A writer with more successors than the old map threshold (8), each
	// reading a slice of its own and re-reading slice 0.
	const readers = 12
	w := mk("w", rawDep(0, 64*readers, task.Out))
	ts := []*task.Task{w}
	for i := 0; i < readers; i++ {
		ts = append(ts, mk(fmt.Sprintf("r%d", i), rawDep(uint64(64*i), 64, task.In), rawDep(0, 32, task.In)))
	}
	if got := dedupRun(t, ts...); len(got) != readers {
		t.Errorf("re-reading successors: %d arcs, want %d", len(got), readers)
	}
}
