package trace

import (
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func sampleTrace() *Recorder {
	r := New()
	r.Record(Span{Kind: TaskRun, Name: "k1", Node: 0, Dev: 0, Start: ms(0), End: ms(10)})
	r.Record(Span{Kind: XferH2D, Name: "fetch", Node: 0, Dev: 0, Start: ms(10), End: ms(12), Bytes: 4096})
	r.Record(Span{Kind: TaskRun, Name: "k2", Node: 0, Dev: 0, Start: ms(12), End: ms(30)})
	r.Record(Span{Kind: TaskRun, Name: "cpu", Node: 1, Dev: -1, Start: ms(5), End: ms(9)})
	r.Record(Span{Kind: NetSend, Name: "m->s", Node: 0, Dev: -1, Start: ms(2), End: ms(4), Bytes: 1024})
	return r
}

func TestSpansSorted(t *testing.T) {
	r := sampleTrace()
	spans := r.Spans()
	if len(spans) != 5 {
		t.Fatalf("len = %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted: %v", spans)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{Kind: TaskRun}) // must not panic
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder should be empty")
	}
	if len(r.Summary()) != 0 {
		t.Fatal("nil recorder summary should be empty")
	}
}

func TestSummary(t *testing.T) {
	s := sampleTrace().Summary()
	if s["task"].Count != 3 || s["h2d"].Count != 1 || s["net"].Count != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s["h2d"].Bytes != 4096 || s["net"].Bytes != 1024 {
		t.Fatalf("bytes = %+v", s)
	}
}

func TestGantt(t *testing.T) {
	var sb strings.Builder
	if err := sampleTrace().Gantt(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "node0:gpu0") || !strings.Contains(out, "node1:cpu") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "-") {
		t.Fatalf("missing marks:\n%s", out)
	}
	// Empty trace renders a placeholder.
	var sb2 strings.Builder
	if err := New().Gantt(&sb2, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "empty") {
		t.Fatal("empty trace should say so")
	}
}

func TestBackwardsSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Record(Span{Start: ms(5), End: ms(1)})
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{TaskRun: "task", Stage: "stage", XferH2D: "h2d", XferD2H: "d2h", NetSend: "net"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}
