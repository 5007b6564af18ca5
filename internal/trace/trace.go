// Package trace records execution timelines of a runtime run — task
// executions, data transfers and network messages per device — playing
// the role of Nanos++'s instrumentation layer. Traces can be inspected
// programmatically, rendered as an ASCII Gantt chart, or exported for
// Perfetto (perfetto.go).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/bsc-repro/ompss/internal/sim"
)

// Kind classifies a span.
type Kind int

const (
	// TaskRun is the execution of a task body (kernel or SMP function).
	TaskRun Kind = iota
	// Stage is the coherence work preparing a task's data.
	Stage
	// XferH2D is a host-to-device transfer.
	XferH2D
	// XferD2H is a device-to-host transfer.
	XferD2H
	// NetSend is an inter-node data transfer.
	NetSend
	// Retry is a retransmission of an unacknowledged active message.
	Retry
	// Heartbeat is a failure-detector event (a missed probe).
	Heartbeat
	// Recovery is fault-recovery work: a node declared dead, or a lost
	// region rebuilt by re-running its producer chain.
	Recovery
	// Throttle is a kernel launch deferred by the power governor: the span
	// covers the wait until enough headroom under Config.PowerCapWatts.
	Throttle
)

func (k Kind) String() string {
	switch k {
	case TaskRun:
		return "task"
	case Stage:
		return "stage"
	case XferH2D:
		return "h2d"
	case XferD2H:
		return "d2h"
	case NetSend:
		return "net"
	case Retry:
		return "retry"
	case Heartbeat:
		return "heartbeat"
	case Recovery:
		return "recovery"
	case Throttle:
		return "throttle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Span is one recorded interval on one resource.
type Span struct {
	Kind  Kind
	Name  string
	Node  int
	Dev   int // -1 for host/CPU rows
	Start sim.Time
	End   sim.Time
	Bytes uint64
	// Task is the task id a TaskRun span executed (0 = untagged).
	Task int64
	// Region is the data-region address a transfer span moved (0 = untagged).
	Region uint64
	// Peer is the destination node of a NetSend span; meaningful only for
	// that kind (the producer records the span on its own Node row).
	Peer int
}

// Dur returns the span length.
func (s Span) dur() sim.Time { return s.End - s.Start }

// depEdge is one dependency arc (pred must finish before succ runs)
// mirrored from the runtime's dependency graph into the trace, so
// post-mortem analyses can walk the realized DAG.
type depEdge struct {
	Pred, Succ int64
}

// counterSample is one sampled value of a named per-node counter track
// (scheduler queue depth). Perfetto renders each distinct name as its own
// counter row.
type counterSample struct {
	Name  string
	Node  int
	At    sim.Time
	Value int64
}

// Recorder accumulates spans. A nil *Recorder is valid and records
// nothing, so instrumentation sites need no guards.
type Recorder struct {
	spans    []Span
	edges    []depEdge
	counters []counterSample
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record appends a completed span. No-op on a nil recorder.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		panic(fmt.Sprintf("trace: span ends (%v) before it starts (%v)", s.End, s.Start))
	}
	r.spans = append(r.spans, s)
}

// Open is an in-flight span: the handle Recorder.Begin returns and one
// of End/EndBytes/EndNonEmpty closes. It is a plain value — beginning a
// span allocates nothing, and on a nil recorder the whole pair is a
// no-op — so instrumentation sites need no guards. The tracepair rule
// (internal/sim/rules_test.go) checks that every Begin reaches a close
// on all paths.
type Open struct {
	r    *Recorder
	span Span
}

// Begin opens a span at start. Nothing is recorded until the returned
// handle is closed with End, EndBytes or EndNonEmpty.
func (r *Recorder) Begin(kind Kind, name string, node, dev int, start sim.Time) Open {
	return Open{r: r, span: Span{Kind: kind, Name: name, Node: node, Dev: dev, Start: start}}
}

// End closes the span at end and records it.
func (o Open) End(end sim.Time) {
	o.span.End = end
	o.r.Record(o.span)
}

// EndBytes closes the span at end, attaching its byte payload.
func (o Open) EndBytes(end sim.Time, bytes uint64) {
	o.span.End = end
	o.span.Bytes = bytes
	o.r.Record(o.span)
}

// EndNonEmpty closes the span at end, recording it only if it has
// positive length — for phases that often take zero virtual time (a
// fully-cached staging phase) and would otherwise litter the trace
// with empty spans.
func (o Open) EndNonEmpty(end sim.Time) {
	if end <= o.span.Start {
		return
	}
	o.End(end)
}

// EndTask closes the span at end, tagging it with the id of the task it
// executed so the critical-path analyzer can join spans to dep edges.
func (o Open) EndTask(end sim.Time, task int64) {
	o.span.End = end
	o.span.Task = task
	o.r.Record(o.span)
}

// EndRegion closes the span at end, attaching the region address and
// byte count it moved so transfers can be chained to the tasks that
// produced and consume the region.
func (o Open) EndRegion(end sim.Time, region uint64, bytes uint64) {
	o.span.End = end
	o.span.Region = region
	o.span.Bytes = bytes
	o.r.Record(o.span)
}

// Edge records one dependency arc pred -> succ. No-op on a nil
// recorder. The runtime mirrors depgraph arcs here when tracing.
func (r *Recorder) Edge(pred, succ int64) {
	if r == nil {
		return
	}
	r.edges = append(r.edges, depEdge{Pred: pred, Succ: succ})
}

// Edges returns the recorded dependency arcs sorted by (pred, succ),
// deduplicated.
func (r *Recorder) Edges() []depEdge {
	if r == nil {
		return nil
	}
	out := make([]depEdge, len(r.edges))
	copy(out, r.edges)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pred != out[j].Pred {
			return out[i].Pred < out[j].Pred
		}
		return out[i].Succ < out[j].Succ
	})
	dedup := out[:0]
	for i, e := range out {
		if i == 0 || e != out[i-1] {
			dedup = append(dedup, e)
		}
	}
	return dedup
}

// Count records one counter sample. No-op on a nil recorder, so hot
// dispatch paths need no guards when tracing is off.
func (r *Recorder) Count(name string, node int, at sim.Time, value int64) {
	if r == nil {
		return
	}
	r.counters = append(r.counters, counterSample{Name: name, Node: node, At: at, Value: value})
}

// sortedCounters returns all counter samples sorted by time (stable on
// ties, so equal-time samples keep their recording order).
func (r *Recorder) sortedCounters() []counterSample {
	if r == nil {
		return nil
	}
	out := make([]counterSample, len(r.counters))
	copy(out, r.counters)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Spans returns all spans sorted by start time (stable on ties).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// resource identifies one timeline row.
type resource struct {
	node int
	dev  int
}

func (res resource) String() string {
	if res.dev < 0 {
		return fmt.Sprintf("node%d:cpu", res.node)
	}
	return fmt.Sprintf("node%d:gpu%d", res.node, res.dev)
}

// resources returns the distinct rows in deterministic order.
func (r *Recorder) resources() []resource {
	seen := map[resource]bool{}
	var out []resource
	for _, s := range r.spans {
		res := resource{s.Node, s.Dev}
		if !seen[res] {
			seen[res] = true
			out = append(out, res)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].dev < out[j].dev
	})
	return out
}

// Gantt renders an ASCII utilization chart: one row per resource, width
// columns spanning [0, end]; '#' marks task execution, '-' transfers or
// staging, '.' idle.
func (r *Recorder) Gantt(w io.Writer, width int) error {
	if r == nil || len(r.spans) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	if width < 10 {
		width = 10
	}
	var end sim.Time
	for _, s := range r.spans {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		end = 1
	}
	cell := func(t sim.Time) int {
		c := int(int64(t) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		return c
	}
	for _, res := range r.resources() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range r.spans {
			if (resource{s.Node, s.Dev}) != res {
				continue
			}
			mark := byte('-')
			if s.Kind == TaskRun {
				mark = '#'
			}
			for c := cell(s.Start); c <= cell(s.End); c++ {
				if row[c] == '#' {
					continue // task execution dominates the cell
				}
				row[c] = mark
			}
		}
		if _, err := fmt.Fprintf(w, "%-14s |%s|\n", res, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-14s  0%s%v\n", "", strings.Repeat(" ", width-len(end.String())), end)
	return err
}

// Summary returns per-kind span counts and bytes.
func (r *Recorder) Summary() map[string]struct {
	Count int
	Bytes uint64
	Time  sim.Time
} {
	out := map[string]struct {
		Count int
		Bytes uint64
		Time  sim.Time
	}{}
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		e := out[s.Kind.String()]
		e.Count++
		e.Bytes += s.Bytes
		e.Time += s.dur()
		out[s.Kind.String()] = e
	}
	return out
}
