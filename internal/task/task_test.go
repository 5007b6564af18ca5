package task

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/bsc-repro/ompss/internal/memspace"
)

// A NoWork is named by its label, or "nop" without one: the name a task
// spawned with NoWork and no Name clause gets.
func TestNoWorkName(t *testing.T) {
	if got := (NoWork{}).Name(); got != "nop" {
		t.Errorf("NoWork{}.Name() = %q, want nop", got)
	}
	if got := (NoWork{Label: "sync"}).Name(); got != "sync" {
		t.Errorf("NoWork{Label: sync}.Name() = %q, want sync", got)
	}
}

// Each access names its clause in diagnostics, and only in, out and inout
// touch the prior value: a reduction neither reads nor writes it, because
// its partials start from the identity and are folded in at combine time.
func TestAccessClauses(t *testing.T) {
	for _, tc := range []struct {
		a             Access
		name          string
		reads, writes bool
	}{
		{In, "in", true, false},
		{Out, "out", false, true},
		{InOut, "inout", true, true},
		{Red, "reduction", false, false},
		{Access(7), "access(7)", false, false},
	} {
		if got := tc.a.String(); got != tc.name {
			t.Errorf("Access(%d).String() = %q, want %q", int(tc.a), got, tc.name)
		}
		if tc.a.Reads() != tc.reads || tc.a.Writes() != tc.writes {
			t.Errorf("%s: Reads, Writes = %v, %v, want %v, %v", tc.name, tc.a.Reads(), tc.a.Writes(), tc.reads, tc.writes)
		}
	}
}

// A Task, its dependence-graph node included, is 112 bytes: a
// million-task graph holds every one live at once, so the clauses few
// tasks carry sit behind one pointer and the node's wait count and done
// flag share the Device word.
func TestTaskSize(t *testing.T) {
	if size := unsafe.Sizeof(Task{}); size > 112 {
		t.Fatalf("Task is %d bytes, want <= 112", size)
	}
}

// Copies is Deps itself when the dependence clauses are the copy list and
// name distinct regions, and costs a task without rare clauses nothing;
// otherwise it merges duplicate regions (differing accesses as InOut) and
// appends the extra copy clauses, once.
func TestCopies(t *testing.T) {
	r := func(addr uint64) memspace.Region { return memspace.Region{Addr: addr, Size: 8} }
	plain := &Task{CopyDeps: true, Deps: []Dep{{r(0), In}, {r(8), Out}}}
	plain.SetClauses(nil, nil, nil)
	if allocs := testing.AllocsPerRun(10, func() { plain.Copies() }); allocs != 0 || plain.rare != nil {
		t.Errorf("plain task: %v allocations, rare clauses %v", allocs, plain.rare)
	}
	if got := plain.Copies(); &got[0] != &plain.Deps[0] {
		t.Errorf("plain task: Copies() is not Deps itself")
	}
	for _, tc := range []struct {
		name     string
		copyDeps bool
		deps     []Dep
		extra    []Dep
		want     []Dep
	}{
		{"duplicate deps", true, []Dep{{r(0), In}, {r(8), In}, {r(0), Out}}, nil, []Dep{{r(0), InOut}, {r(8), In}}},
		{"extra copies", true, []Dep{{r(0), In}}, []Dep{{r(0), In}, {r(16), Out}}, []Dep{{r(0), In}, {r(16), Out}}},
		{"no copy_deps", false, []Dep{{r(0), In}}, []Dep{{r(8), In}}, []Dep{{r(8), In}}},
	} {
		tk := &Task{CopyDeps: tc.copyDeps, Deps: tc.deps}
		tk.SetClauses(tc.extra, nil, nil)
		first := tk.Copies()
		if fmt.Sprint(first) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Copies() = %v, want %v", tc.name, first, tc.want)
		}
		if again := tk.Copies(); &again[0] != &first[0] {
			t.Errorf("%s: Copies() derived twice", tc.name)
		}
	}
}
