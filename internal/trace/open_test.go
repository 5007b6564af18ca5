package trace

import "testing"

func TestBeginEndEquivalentToRecord(t *testing.T) {
	r := New()
	r.Begin(TaskRun, "k", 1, 0, ms(2)).End(ms(5))
	r.Begin(NetSend, "m->s", 0, -1, ms(3)).EndBytes(ms(7), 4096)

	want := New()
	want.Record(Span{Kind: TaskRun, Name: "k", Node: 1, Dev: 0, Start: ms(2), End: ms(5)})
	want.Record(Span{Kind: NetSend, Name: "m->s", Node: 0, Dev: -1, Start: ms(3), End: ms(7), Bytes: 4096})

	got, exp := r.Spans(), want.Spans()
	if len(got) != len(exp) {
		t.Fatalf("got %d spans, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Errorf("span %d: got %+v, want %+v", i, got[i], exp[i])
		}
	}
}

func TestEndNonEmpty(t *testing.T) {
	r := New()
	r.Begin(Stage, "hit", 0, 0, ms(4)).EndNonEmpty(ms(4)) // zero-length: dropped
	r.Begin(Stage, "miss", 0, 0, ms(4)).EndNonEmpty(ms(6))
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (zero-length stage must be dropped)", r.Len())
	}
	if s := r.Spans()[0]; s.Name != "miss" || s.dur() != ms(2) {
		t.Fatalf("kept wrong span: %+v", s)
	}
}

func TestNilRecorderOpenIsInert(t *testing.T) {
	var r *Recorder
	sp := r.Begin(TaskRun, "k", 0, 0, ms(1))
	sp.End(ms(2)) // must not panic or record
	r.Begin(Stage, "s", 0, 0, ms(1)).EndNonEmpty(ms(3))
	if r.Len() != 0 {
		t.Fatalf("nil recorder recorded %d spans", r.Len())
	}
}

func TestBeginAllocatesNothing(t *testing.T) {
	var nilRec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		nilRec.Begin(TaskRun, "k", 0, 0, ms(1)).End(ms(2))
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder Begin/End allocates %v per op, want 0", allocs)
	}
}

func TestEndBeforeStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End before Start must panic (via Record's span check)")
		}
	}()
	New().Begin(TaskRun, "k", 0, 0, ms(5)).End(ms(1))
}
