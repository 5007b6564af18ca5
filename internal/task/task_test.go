package task

import "testing"

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
