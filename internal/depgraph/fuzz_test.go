package depgraph

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// fuzzSpace is the byte space the fuzzed tasks touch.
const fuzzSpace = 64

// decodeFuzzTasks turns fuzz input into at most 32 tasks over at most 8
// overlapping ranges of a 64-byte space. Byte 0 seeds the drain order;
// byte 1 gives the range count (1 + b%8); each range is two bytes, its
// start (b%48) and size (1 + b%16). Each task is a header byte, its clause
// count (1 + b%3), and one byte per clause: the range (b&7 % ranges) and
// the access (b>>3 & 3: in, out, inout, reduction).
func decodeFuzzTasks(data []byte) (seed int64, ts []*task.Task) {
	if len(data) < 2 {
		return 0, nil
	}
	seed = int64(data[0])
	nr := 1 + int(data[1])%8
	data = data[2:]
	var ranges []memspace.Region
	for ; len(ranges) < nr && len(data) >= 2; data = data[2:] {
		ranges = append(ranges, memspace.Region{Addr: uint64(data[0]) % 48, Size: 1 + uint64(data[1])%16})
	}
	for len(ts) < 32 && len(ranges) > 0 && len(data) > 0 {
		nc := 1 + int(data[0])%3
		if len(data) < 1+nc {
			break
		}
		var deps []task.Dep
		for _, c := range data[1 : 1+nc] {
			deps = append(deps, task.Dep{Region: ranges[int(c&7)%len(ranges)], Access: task.Access(c >> 3 & 3)})
		}
		data = data[1+nc:]
		ts = append(ts, &task.Task{ID: task.ID(len(ts) + 1), Deps: deps})
	}
	return seed, ts
}

// runFuzzBody is a task's body: it hashes its id and the bytes it reads,
// then writes the hash over its outputs and adds it into its reduction
// regions (addition commutes, so concurrent reducers may run in any
// order). It returns the hash, which names what the task read.
func runFuzzBody(t *task.Task, mem []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < 8; i++ {
		mix(byte(t.ID >> (8 * i)))
	}
	for _, d := range t.Deps {
		if d.Access.Reads() {
			for _, b := range mem[d.Region.Addr:d.Region.End()] {
				mix(b)
			}
		}
	}
	for _, d := range t.Deps {
		for i := d.Region.Addr; i < d.Region.End(); i++ {
			switch {
			case d.Access.Writes():
				mem[i] = byte(h >> (8 * (i % 8)))
			case d.Access == task.Red:
				mem[i] += byte(h) | 1
			}
		}
	}
	return h
}

// producers is the serial oracle's record of who produces one byte's
// current version: its last writer and the reducers of the last reduction
// phase since. A reader ends a pending phase (later reducers start a new
// one) but not its reducers' claim on the bytes.
type producers struct {
	writer   *task.Task
	reducers []*task.Task
	pending  bool
}

// submitProducers records t's clauses, as accepted by Submit, in per-byte order.
func submitProducers(prod []producers, t *task.Task) {
	for _, d := range t.Deps {
		for i := d.Region.Addr; i < d.Region.End(); i++ {
			p := &prod[i]
			switch {
			case d.Access == task.Red:
				if !p.pending {
					p.reducers = nil
				}
				p.reducers, p.pending = append(p.reducers, t), true
			case d.Access.Writes():
				*p = producers{writer: t}
			default:
				p.pending = false
			}
		}
	}
}

// checkLastWriter holds LastWriter(r) to the oracle: non-nil exactly when
// an unfinished task produces some byte of r, and then one of those.
func checkLastWriter(t *testing.T, g *Graph, prod []producers, done map[*task.Task]bool, r memspace.Region) {
	t.Helper()
	unfinished := map[*task.Task]bool{}
	for _, p := range prod[r.Addr:r.End()] {
		for _, tk := range append([]*task.Task{p.writer}, p.reducers...) {
			if tk != nil && !done[tk] {
				unfinished[tk] = true
			}
		}
	}
	switch got := g.LastWriter(r); {
	case got == nil && len(unfinished) > 0:
		t.Fatalf("LastWriter(%v) = nil, but %d unfinished tasks produce it", r, len(unfinished))
	case got != nil && !unfinished[got]:
		t.Fatalf("LastWriter(%v) = %v, which is not an unfinished producer of it", r, got)
	}
}

// FuzzDepgraph checks the graph against serial execution: tasks drained
// in a seeded random order among the ready ones (in one pass after all
// are submitted, in three more interleaved with submission) must read
// what they read when run one by one in submission order, and leave the
// same bytes. A task Submit rejects is left out on both sides. Every arc
// OnArc reports must be new, each accepted task must become ready exactly
// once, and the graph must end with nothing pending. After each Finished
// the task pins no successor, and LastWriter over each of its regions
// agrees with the serial oracle of who produces those bytes.
func FuzzDepgraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, ts := decodeFuzzTasks(data)
		if len(ts) == 0 {
			return
		}
		var accepted []*task.Task
		var want []byte
		wantHash := map[task.ID]uint64{}
		for pass := 0; pass < 4; pass++ {
			rng := rand.New(rand.NewSource(seed*4 + int64(pass)))
			var ready []*task.Task
			readies := map[task.ID]int{}
			g := New(func(rt *task.Task) { ready = append(ready, rt); readies[rt.ID]++ })
			arcs := map[[2]task.ID]bool{}
			g.OnArc = func(pred, succ task.ID) {
				if arcs[[2]task.ID{pred, succ}] {
					t.Fatalf("pass %d: arc %d->%d made twice", pass, pred, succ)
				}
				arcs[[2]task.ID{pred, succ}] = true
			}
			mem := make([]byte, fuzzSpace)
			prod := make([]producers, fuzzSpace)
			done := map[*task.Task]bool{}
			got := map[task.ID]uint64{}
			var ok []*task.Task
			for next := 0; next < len(ts) || len(ready) > 0; {
				if next < len(ts) && (pass == 0 || len(ready) == 0 || rng.Intn(2) == 0) {
					tk := *ts[next]
					next++
					if err := g.Submit(&tk); err == nil {
						ok = append(ok, &tk)
						submitProducers(prod, &tk)
					}
					continue
				}
				i := rng.Intn(len(ready))
				rt := ready[i]
				ready = append(ready[:i], ready[i+1:]...)
				got[rt.ID] = runFuzzBody(rt, mem)
				g.Finished(rt)
				done[rt] = true
				if rt.NodeSuccs != nil || rt.NodeFirst[0] != nil {
					t.Fatalf("pass %d: finished task %d pins successors: %d listed, inline %v", pass, rt.ID, len(rt.NodeSuccs), rt.NodeFirst[0])
				}
				for _, d := range rt.Deps {
					checkLastWriter(t, g, prod, done, d.Region)
				}
			}
			if pass == 0 {
				accepted = ok
				want = make([]byte, fuzzSpace)
				for _, tk := range accepted {
					wantHash[tk.ID] = runFuzzBody(tk, want)
				}
			} else if len(ok) != len(accepted) {
				t.Fatalf("pass %d accepted %d tasks, pass 0 %d", pass, len(ok), len(accepted))
			}
			if p := g.Pending(); p != 0 {
				t.Fatalf("pass %d: %d tasks still pending", pass, p)
			}
			for _, tk := range accepted {
				if readies[tk.ID] != 1 {
					t.Fatalf("pass %d: task %d became ready %d times", pass, tk.ID, readies[tk.ID])
				}
				if got[tk.ID] != wantHash[tk.ID] {
					t.Fatalf("pass %d: task %d %v read other bytes than in serial order", pass, tk.ID, tk.Deps)
				}
			}
			if !bytes.Equal(mem, want) {
				t.Fatalf("pass %d: memory\n%x\nserial\n%x", pass, mem, want)
			}
		}
	})
}
