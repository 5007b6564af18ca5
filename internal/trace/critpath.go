package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/bsc-repro/ompss/internal/detmap"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Critical-path analysis over the recorded spans and the dependency
// arcs mirrored from the runtime's graph (Recorder.Edge). Two results
// come out of one pass:
//
//   - the realized critical path: the chain of dependent tasks that
//     determined the makespan, found by walking back from the last task
//     to finish through the predecessor that completed last, with every
//     wait between consecutive chain tasks split into transfer time
//     (data movement overlapping the wait on the consumer's node) and
//     pure idle;
//   - per-task slack, from a standard CPM forward/backward pass using
//     the realized task durations: slack 0 marks the critical tasks,
//     large slack marks the tasks with the most scheduling freedom.
//
// Everything is a pure function of the recorded data, so the report is
// bit-identical across replays.

// PathStep is one task on the realized critical path.
type PathStep struct {
	Task  int64
	Name  string
	Node  int
	Dev   int
	Start sim.Time
	End   sim.Time
	// WaitTransfer and WaitIdle split the wait between the previous chain
	// task's completion (or t=0 for the first step) and this task's start:
	// time covered by data movement relevant to this node vs. dead time.
	WaitTransfer sim.Duration
	WaitIdle     sim.Duration
}

// SlackEntry is one task's CPM slack.
type SlackEntry struct {
	Task  int64
	Name  string
	Slack sim.Duration
}

// CritReport is the critical-path analysis result.
type CritReport struct {
	// Makespan is the completion time of the last task.
	Makespan sim.Time
	// Chain is the realized critical path, first task first.
	Chain []PathStep
	// Compute, Transfer and Idle decompose the makespan along the chain:
	// Compute sums the chain tasks' execution time, Transfer the waits
	// covered by data movement, Idle the uncovered waits.
	Compute  sim.Duration
	Transfer sim.Duration
	Idle     sim.Duration
	// TopSlack lists the topK tasks with the most slack, descending.
	TopSlack []SlackEntry
	// Tasks and Edges count the analyzed graph.
	Tasks int
	Edges int
}

// CriticalPath analyzes the trace, returning the realized critical
// path and the topK tasks by slack. Only TaskRun spans closed with
// EndTask participate; returns an empty report when there are none.
func (r *Recorder) CriticalPath(topK int) *CritReport {
	rep := &CritReport{}
	if r == nil {
		return rep
	}
	// Last span per task id wins: under fault re-execution the same task
	// can run twice, and the re-run is the one that fed consumers.
	byTask := map[int64]Span{}
	for _, s := range r.Spans() {
		if s.Kind == TaskRun && s.Task != 0 {
			byTask[s.Task] = s
		}
	}
	ids := detmap.Keys(byTask)
	rep.Tasks = len(ids)
	if len(ids) == 0 {
		return rep
	}
	preds := map[int64][]int64{}
	succs := map[int64][]int64{}
	for _, e := range r.Edges() {
		if _, ok := byTask[e.Pred]; !ok {
			continue
		}
		if _, ok := byTask[e.Succ]; !ok {
			continue
		}
		preds[e.Succ] = append(preds[e.Succ], e.Pred)
		succs[e.Pred] = append(succs[e.Pred], e.Succ)
		rep.Edges++
	}

	// Realized chain: walk back from the last task to finish through the
	// predecessor that completed last (ties -> smaller id).
	last := ids[0]
	for _, id := range ids[1:] {
		if s := byTask[id]; s.End > byTask[last].End || (s.End == byTask[last].End && id < last) {
			last = id
		}
	}
	rep.Makespan = byTask[last].End
	var chainIDs []int64
	for at := last; ; {
		chainIDs = append(chainIDs, at)
		best, have := int64(0), false
		for _, p := range preds[at] {
			if !have || byTask[p].End > byTask[best].End ||
				(byTask[p].End == byTask[best].End && p < best) {
				best, have = p, true
			}
		}
		if !have {
			break
		}
		at = best
	}
	// Reverse into execution order.
	for i, j := 0, len(chainIDs)-1; i < j; i, j = i+1, j-1 {
		chainIDs[i], chainIDs[j] = chainIDs[j], chainIDs[i]
	}
	prevEnd := sim.Time(0)
	for _, id := range chainIDs {
		s := byTask[id]
		step := PathStep{Task: id, Name: s.Name, Node: s.Node, Dev: s.Dev, Start: s.Start, End: s.End}
		step.WaitTransfer, step.WaitIdle = r.classifyGap(prevEnd, s.Start, s.Node)
		rep.Chain = append(rep.Chain, step)
		rep.Compute += sim.Duration(s.dur())
		rep.Transfer += step.WaitTransfer
		rep.Idle += step.WaitIdle
		prevEnd = s.End
	}

	// CPM slack. Realized start order is a valid topological order: a
	// predecessor always finished before its successor started.
	order := append([]int64(nil), ids...)
	sort.Slice(order, func(i, j int) bool {
		a, b := byTask[order[i]], byTask[order[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return order[i] < order[j]
	})
	ect := map[int64]sim.Time{} // earliest completion
	var makespan sim.Time
	for _, id := range order {
		var est sim.Time
		for _, p := range preds[id] {
			if ect[p] > est {
				est = ect[p]
			}
		}
		ect[id] = est + byTask[id].dur()
		if ect[id] > makespan {
			makespan = ect[id]
		}
	}
	lft := map[int64]sim.Time{} // latest finish without delaying makespan
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		l := makespan
		for _, s := range succs[id] {
			if v := lft[s] - byTask[s].dur(); v < l {
				l = v
			}
		}
		lft[id] = l
	}
	entries := make([]SlackEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, SlackEntry{Task: id, Name: byTask[id].Name,
			Slack: sim.Duration(lft[id] - ect[id])})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Slack != entries[j].Slack {
			return entries[i].Slack > entries[j].Slack
		}
		return entries[i].Task < entries[j].Task
	})
	if topK > 0 && len(entries) > topK {
		entries = entries[:topK]
	}
	rep.TopSlack = entries
	return rep
}

// classifyGap splits [from, to) on the given node into time covered by
// data movement relevant to that node (staging, PCIe transfers, and
// network sends arriving there) and uncovered idle time.
func (r *Recorder) classifyGap(from, to sim.Time, node int) (transfer, idle sim.Duration) {
	if to <= from {
		return 0, 0
	}
	type iv struct{ a, b sim.Time }
	var ivs []iv
	for _, s := range r.spans {
		relevant := false
		switch s.Kind {
		case Stage, XferH2D, XferD2H:
			relevant = s.Node == node
		case NetSend:
			relevant = s.Peer == node
		}
		if !relevant {
			continue
		}
		a, b := s.Start, s.End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].a != ivs[j].a {
			return ivs[i].a < ivs[j].a
		}
		return ivs[i].b < ivs[j].b
	})
	var covered sim.Duration
	cursor := from
	for _, v := range ivs {
		if v.b <= cursor {
			continue
		}
		if v.a > cursor {
			cursor = v.a
		}
		covered += sim.Duration(v.b - cursor)
		cursor = v.b
	}
	gap := sim.Duration(to - from)
	return covered, gap - covered
}

// WriteText renders the report as a stable human-readable summary.
func (cr *CritReport) WriteText(w io.Writer) error {
	if cr.Tasks == 0 {
		_, err := fmt.Fprintln(w, "critical path: no tagged task spans recorded")
		return err
	}
	total := sim.Duration(cr.Makespan)
	pct := func(d sim.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	if _, err := fmt.Fprintf(w, "critical path: %d tasks / %d edges analyzed; makespan %v\n",
		cr.Tasks, cr.Edges, cr.Makespan); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "chain of %d tasks: compute %v (%.1f%%), transfer %v (%.1f%%), idle %v (%.1f%%)\n",
		len(cr.Chain), cr.Compute, pct(cr.Compute), cr.Transfer, pct(cr.Transfer), cr.Idle, pct(cr.Idle)); err != nil {
		return err
	}
	for i, st := range cr.Chain {
		dev := "cpu"
		if st.Dev >= 0 {
			dev = fmt.Sprintf("gpu%d", st.Dev)
		}
		if _, err := fmt.Fprintf(w, "  %3d. %s #%d on node%d:%s [%v, %v] wait: transfer %v, idle %v\n",
			i+1, st.Name, st.Task, st.Node, dev, st.Start, st.End, st.WaitTransfer, st.WaitIdle); err != nil {
			return err
		}
	}
	if len(cr.TopSlack) > 0 {
		if _, err := fmt.Fprintf(w, "top %d tasks by slack:\n", len(cr.TopSlack)); err != nil {
			return err
		}
		for _, e := range cr.TopSlack {
			if _, err := fmt.Fprintf(w, "  %s #%d slack %v\n", e.Name, e.Task, e.Slack); err != nil {
				return err
			}
		}
	}
	return nil
}
