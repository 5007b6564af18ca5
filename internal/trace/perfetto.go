package trace

import (
	"bufio"
	"fmt"
	"io"

	"github.com/bsc-repro/ompss/internal/detmap"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Perfetto/Chrome trace-event export. The JSON is hand-rolled so the
// output is a pure function of the recorded spans: fields appear in a
// fixed order, timestamps are fixed-point microseconds, and every
// iteration is over deterministically ordered slices — two replays of
// the same seeded run produce byte-identical files (the determinism
// contract DESIGN.md §10 documents).
//
// Mapping: one Perfetto process per node (pid = node id), one thread
// per resource row — tid 0 is the CPU pool, tid 1+g is GPU manager g,
// and tid netTID is the node's communication thread, which carries the
// NetSend/Retry/Heartbeat/Recovery activity. Zero-length spans become
// instant events ("i"), everything else complete slices ("X"). Flow
// arrows connect producer task -> data transfer -> consumer task per
// data region.

// netTID is the synthetic thread id of a node's communication row.
const netTID = 1000

// perfettoTID maps a span to its thread row within its node's process.
func perfettoTID(s Span) int {
	switch s.Kind {
	case NetSend, Retry, Heartbeat, Recovery:
		return netTID
	}
	if s.Dev < 0 {
		return 0
	}
	return 1 + s.Dev
}

func perfettoThreadName(tid int) string {
	switch {
	case tid == netTID:
		return "net"
	case tid == 0:
		return "cpu"
	default:
		return fmt.Sprintf("gpu%d", tid-1)
	}
}

// usec renders a virtual-time instant as fixed-point microseconds with
// nanosecond precision — deterministic, no float formatting involved.
func usec(t sim.Time) string {
	ns := int64(t)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jsonEscape writes s as a JSON string literal (printable ASCII plus
// escapes; span names are runtime-generated identifiers).
func jsonEscape(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			out = append(out, '\\', c)
		case c < 0x20:
			out = append(out, fmt.Sprintf("\\u%04x", c)...)
		default:
			out = append(out, c)
		}
	}
	out = append(out, '"')
	return string(out)
}

// flow is one derived producer -> transfer -> consumer arrow.
type flow struct {
	id   uint64
	name string
	// bound slices, in order: each flow event attaches to one slice.
	steps []flowStep
}

type flowStep struct {
	ph   byte // 's', 't' or 'f'
	span Span
	ts   sim.Time
}

// isTransfer reports whether s moves region data between memories.
func isTransfer(s Span) bool {
	switch s.Kind {
	case XferH2D, XferD2H, NetSend:
		return true
	}
	return false
}

// transferDestRow returns the (node, tid) row where the transferred
// data lands: the GPU row for H2D, the host row for D2H, and the peer
// node's host row for a network send.
func transferDestRow(s Span) (node, tid int) {
	switch s.Kind {
	case XferH2D:
		return s.Node, 1 + s.Dev
	case NetSend:
		return s.Peer, 0
	default: // XferD2H
		return s.Node, 0
	}
}

// deriveFlows builds one flow per transfer span carrying a tagged
// region: the most recent task to finish on the source node before the
// transfer starts (the plausible producer), the transfer itself, and
// the first task to start on the destination row at or after the
// transfer ends (the consumer). Flows with fewer than two resolved
// steps are dropped. spans must be the Spans() start-sorted order.
func deriveFlows(spans []Span) []flow {
	var tasks []Span
	for _, s := range spans {
		if s.Kind == TaskRun && s.Task != 0 {
			tasks = append(tasks, s)
		}
	}
	var flows []flow
	var id uint64
	for _, x := range spans {
		if !isTransfer(x) || x.Region == 0 {
			continue
		}
		var steps []flowStep
		// Producer: latest-ending task on the source node, done by x.Start.
		var prod Span
		haveProd := false
		for _, t := range tasks {
			if t.Node == x.Node && t.End <= x.Start &&
				(!haveProd || t.End > prod.End || (t.End == prod.End && t.Task < prod.Task)) {
				prod, haveProd = t, true
			}
		}
		if haveProd {
			steps = append(steps, flowStep{ph: 's', span: prod, ts: prod.End})
		}
		mid := byte('t')
		if !haveProd {
			mid = 's'
		}
		steps = append(steps, flowStep{ph: mid, span: x, ts: x.Start})
		// Consumer: first task to start on the destination row after x.End.
		dn, dt := transferDestRow(x)
		var cons Span
		haveCons := false
		for _, t := range tasks {
			if t.Node == dn && perfettoTID(t) == dt && t.Start >= x.End &&
				(!haveCons || t.Start < cons.Start || (t.Start == cons.Start && t.Task < cons.Task)) {
				cons, haveCons = t, true
			}
		}
		if haveCons {
			steps = append(steps, flowStep{ph: 'f', span: cons, ts: cons.Start})
		}
		if len(steps) < 2 {
			continue
		}
		id++
		flows = append(flows, flow{id: id, name: x.Kind.String() + ":" + x.Name, steps: steps})
	}
	return flows
}

// WritePerfetto exports the trace as Chrome trace-event JSON loadable
// by Perfetto (ui.perfetto.dev) and chrome://tracing.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	spans := r.Spans()
	// Metadata: name the processes (nodes) and threads (resource rows).
	rows := map[[2]int]bool{}
	nodes := map[int]bool{}
	for _, s := range spans {
		nodes[s.Node] = true
		rows[[2]int{s.Node, perfettoTID(s)}] = true
		if s.Kind == NetSend {
			// The receiving side of a send appears even if the peer row
			// recorded nothing itself.
			nodes[s.Peer] = true
		}
	}
	for _, n := range detmap.Keys(nodes) {
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"node%d\"}}", n, n))
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":%d}}", n, n))
	}
	for _, row := range detmap.KeysFunc(rows, func(a, b [2]int) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	}) {
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
			row[0], row[1], jsonEscape(perfettoThreadName(row[1]))))
		emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
			row[0], row[1], row[1]))
	}
	// Span events, in deterministic start order.
	for _, s := range spans {
		args := ""
		if s.Bytes > 0 {
			args += fmt.Sprintf(",\"bytes\":%d", s.Bytes)
		}
		if s.Task != 0 {
			args += fmt.Sprintf(",\"task\":%d", s.Task)
		}
		if s.Region != 0 {
			args += fmt.Sprintf(",\"region\":%d", s.Region)
		}
		if s.Kind == NetSend {
			args += fmt.Sprintf(",\"peer\":%d", s.Peer)
		}
		if args != "" {
			args = ",\"args\":{" + args[1:] + "}"
		}
		if s.dur() == 0 {
			emit(fmt.Sprintf("{\"ph\":\"i\",\"s\":\"t\",\"name\":%s,\"cat\":%s,\"pid\":%d,\"tid\":%d,\"ts\":%s%s}",
				jsonEscape(s.Name), jsonEscape(s.Kind.String()), s.Node, perfettoTID(s), usec(s.Start), args))
			continue
		}
		emit(fmt.Sprintf("{\"ph\":\"X\",\"name\":%s,\"cat\":%s,\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s%s}",
			jsonEscape(s.Name), jsonEscape(s.Kind.String()), s.Node, perfettoTID(s), usec(s.Start), usec(s.dur()), args))
	}
	// Counter tracks ("C" events): one row per counter name per node,
	// samples in time order.
	for _, c := range r.sortedCounters() {
		emit(fmt.Sprintf("{\"ph\":\"C\",\"name\":%s,\"pid\":%d,\"ts\":%s,\"args\":{\"value\":%d}}",
			jsonEscape(c.Name), c.Node, usec(c.At), c.Value))
	}
	// Flow arrows: producer task -> transfer -> consumer task.
	for _, f := range deriveFlows(spans) {
		for _, st := range f.steps {
			bp := ""
			if st.ph != 's' {
				bp = ",\"bp\":\"e\""
			}
			emit(fmt.Sprintf("{\"ph\":\"%c\",\"name\":%s,\"cat\":\"dataflow\",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%s%s}",
				st.ph, jsonEscape(f.name), f.id, st.span.Node, perfettoTID(st.span), usec(st.ts), bp))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
