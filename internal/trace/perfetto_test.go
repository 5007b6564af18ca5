package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/bsc-repro/ompss/internal/sim"
)

// fixtureRecorder builds a small two-node trace by hand: task 1 runs on
// node 0's CPU, its output is sent to node 1 and staged onto node 1's
// GPU, where task 2 consumes it. A zero-length retry event rides along.
func fixtureRecorder() *Recorder {
	r := New()
	t1 := r.Begin(TaskRun, "produce", 0, -1, 0)
	t1.EndTask(1000, 1)
	send := r.Begin(NetSend, "m->s", 0, -1, 1000)
	send.span.Peer = 1
	send.EndRegion(3000, 0x1000, 4096)
	r.Record(Span{Kind: Retry, Name: "runTask->node1#2", Node: 0, Dev: -1, Start: 1500, End: 1500})
	h2d := r.Begin(XferH2D, "fetch", 1, 0, 3000)
	h2d.EndRegion(4000, 0x1000, 4096)
	t2 := r.Begin(TaskRun, "consume", 1, 0, 4000)
	t2.EndTask(6000, 2)
	r.Edge(1, 2)
	return r
}

func TestPerfettoValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRecorder().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var slices, instants, flows, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		case "s", "t", "f":
			flows++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
	}
	if slices != 4 {
		t.Fatalf("slices = %d, want 4 (2 tasks, 1 send, 1 h2d)", slices)
	}
	if instants != 1 {
		t.Fatalf("instants = %d, want 1 (the retry)", instants)
	}
	// The send flows producer task -> net -> (no task starts exactly on the
	// peer CPU row) and the H2D flows (no producer on node 1) -> consumer:
	// both transfers resolve at least two steps each.
	if flows < 4 {
		t.Fatalf("flow events = %d, want >= 4", flows)
	}
	if meta == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
}

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRecorder().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Spot-check the exact byte-level conventions the determinism contract
	// fixes: fixed-point microsecond timestamps, stable field order, and
	// the producer->transfer->consumer flow binding.
	for _, want := range []string{
		`{"ph":"M","pid":0,"name":"process_name","args":{"name":"node0"}}`,
		`{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"gpu0"}}`,
		`{"ph":"X","name":"produce","cat":"task","pid":0,"tid":0,"ts":0.000,"dur":1.000,"args":{"task":1}}`,
		`{"ph":"X","name":"m->s","cat":"net","pid":0,"tid":1000,"ts":1.000,"dur":2.000,"args":{"bytes":4096,"region":4096,"peer":1}}`,
		`{"ph":"i","s":"t","name":"runTask->node1#2","cat":"retry","pid":0,"tid":1000,"ts":1.500}`,
		`{"ph":"s","name":"net:m->s","cat":"dataflow","id":1,"pid":0,"tid":0,"ts":1.000}`,
		`{"ph":"f","name":"h2d:fetch","cat":"dataflow","id":2,"pid":1,"tid":1,"ts":4.000,"bp":"e"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("golden fragment missing:\n%s\nfull output:\n%s", want, out)
		}
	}
}

func TestPerfettoByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureRecorder().WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureRecorder().WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
	// Exporting twice from one recorder must not mutate it either.
	r := fixtureRecorder()
	var c, d bytes.Buffer
	if err := r.WritePerfetto(&c); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePerfetto(&d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Fatal("re-export from the same recorder differs")
	}
}

func TestPerfettoNilAndEmpty(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder output invalid: %v", err)
	}
	buf.Reset()
	if err := New().WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty recorder output invalid: %v", err)
	}
}

func TestEdgesDedupSorted(t *testing.T) {
	r := New()
	r.Edge(5, 6)
	r.Edge(1, 2)
	r.Edge(5, 6)
	r.Edge(1, 3)
	got := r.Edges()
	want := []depEdge{{1, 2}, {1, 3}, {5, 6}}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

func TestUsecFormatting(t *testing.T) {
	for _, tc := range []struct {
		ns   sim.Time
		want string
	}{{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"}, {1234567, "1234.567"}} {
		if got := usec(tc.ns); got != tc.want {
			t.Fatalf("usec(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
