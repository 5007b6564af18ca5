package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// TestTransferRoutes pins what the one inter-node transfer leaves behind on
// each of its three routes, master-routed and slave-to-slave: the NetSend
// spans in order (name, sender row, peer, bytes), the two byte counters and
// the message count. The machine is a GPU-less master with two one-GPU
// slaves, so CUDA tasks run on the slaves only and the affinity scheduler
// places each where the data it writes already lives. The expected values
// were recorded before the three protocols became one.
func TestTransferRoutes(t *testing.T) {
	const size = 1 << 16
	cuda := func(mc *MainCtx, name string, w task.Work, deps ...task.Dep) {
		mc.Submit(TaskDef{Name: name, Device: task.CUDA, Deps: deps, Work: w})
	}
	const cost = time.Millisecond
	for _, tc := range []struct {
		name string
		main func(mc *MainCtx) []memspace.Region // returns what to check
		want [2]routeLedger                      // SlaveToSlave off, on
	}{
		{
			// The master initializes a, a slave increments it, the final
			// flush brings it home.
			name: "m->s",
			main: func(mc *MainCtx) []memspace.Region {
				a := mc.Alloc(size)
				mc.InitSeq(a, func(b []byte) { fill(b, 0) })
				cuda(mc, "inc", incWork{r: a, delta: 1, cost: cost}, inoutDep(a))
				mc.TaskWait()
				return []memspace.Region{a}
			},
			want: [2]routeLedger{
				{spans: []string{"m->s 0>1 65536", "s->m 1>0 65536"}, mtos: 2 * size, msgs: 8, check: 1},
				{spans: []string{"m->s 0>1 65536", "s->m 1>0 65536"}, mtos: 2 * size, msgs: 8, check: 1},
			},
		},
		{
			// A slave produces a from nothing; taskwait on(a) pulls it.
			name: "s->m",
			main: func(mc *MainCtx) []memspace.Region {
				a := mc.Alloc(size)
				cuda(mc, "make", setWork{r: a, v: 1, cost: cost}, outDep(a))
				mc.TaskWaitOn(a)
				return []memspace.Region{a}
			},
			want: [2]routeLedger{
				{spans: []string{"s->m 1>0 65536"}, mtos: size, msgs: 6, check: 1},
				{spans: []string{"s->m 1>0 65536"}, mtos: size, msgs: 6, check: 1},
			},
		},
		{
			// Each slave produces one region; a task writing b runs where b
			// lives and reads a from the other slave — directly, or through
			// the master when SlaveToSlave is off.
			name: "s->s",
			main: func(mc *MainCtx) []memspace.Region {
				a, b := mc.Alloc(size), mc.Alloc(size)
				cuda(mc, "makeA", setWork{r: a, v: 1, cost: cost}, outDep(a))
				cuda(mc, "makeB", setWork{r: b, v: 1, cost: cost}, outDep(b))
				mc.TaskWaitNoflush()
				cuda(mc, "mix", sumWork{a: b, b: a, c: b, cost: cost}, inoutDep(b), inDep(a))
				mc.TaskWait()
				return []memspace.Region{a, b}
			},
			want: [2]routeLedger{
				{spans: []string{"s->m 1>0 65536", "m->s 0>2 65536", "s->m 2>0 65536"}, mtos: 3 * size, msgs: 14, check: 3},
				{spans: []string{"s->s 1>2 65536", "s->m 1>0 65536", "s->m 2>0 65536"}, mtos: 2 * size, stos: size, msgs: 15, check: 3},
			},
		},
	} {
		for i, s2s := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/s2s=%v", tc.name, s2s), func(t *testing.T) {
				cfg := baseCfg(3, 1)
				cfg.Cluster.Nodes[0].GPUs = nil
				cfg.Scheduler, cfg.SlaveToSlave, cfg.Trace = sched.Affinity, s2s, trace.New()
				var got routeLedger
				stats, err := New(cfg).Run(func(mc *MainCtx) {
					for _, r := range tc.main(mc) {
						got.check += int(mc.HostBytes(r)[0])
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range cfg.Trace.Spans() {
					if s.Kind != trace.NetSend {
						continue
					}
					if s.Node == s.Peer {
						t.Errorf("transfer addressed to its own source: %+v", s)
					}
					got.spans = append(got.spans, fmt.Sprintf("%s %d>%d %d", s.Name, s.Node, s.Peer, s.Bytes))
				}
				got.mtos, got.stos, got.msgs = stats.BytesMtoS, stats.BytesStoS, stats.NetMsgs
				if want := tc.want[i]; !reflect.DeepEqual(got, want) {
					t.Fatalf("got  %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// routeLedger is what one TestTransferRoutes run leaves behind.
type routeLedger struct {
	spans      []string // "name node>peer bytes", in recording order
	mtos, stos uint64
	msgs       int
	check      int // sum of the first byte of every checked region
}

// TestPickSource table-tests the source choice every route shares.
func TestPickSource(t *testing.T) {
	host, gpu := memspace.Host, memspace.GPU
	type locs = []memspace.Location
	for _, tc := range []struct {
		name    string
		holders locs
		dst     int
		dead    []int
		want    [2]int // SlaveToSlave off, on
	}{
		{"no holders", nil, 1, nil, [2]int{srcLost, srcLost}},
		{"master host only", locs{host(0)}, 1, nil, [2]int{0, 0}},
		{"master gpu only", locs{gpu(0, 1)}, 2, nil, [2]int{0, 0}},
		{"master and slaves", locs{host(0), host(2), host(3)}, 1, nil, [2]int{0, 2}},
		{"master gpu and slave", locs{gpu(0, 0), host(3)}, 1, nil, [2]int{0, 3}},
		{"slaves only", locs{host(2), host(3)}, 1, nil, [2]int{2, 2}},
		{"pull to master", locs{host(2), host(3)}, 0, nil, [2]int{2, 2}},
		{"first slave dead", locs{host(0), host(2), host(3)}, 1, []int{2}, [2]int{0, 3}},
		{"every slave dead", locs{host(0), host(2)}, 1, []int{2}, [2]int{0, 0}},
		{"only holder dead", locs{host(2)}, 1, []int{2}, [2]int{srcLost, srcLost}},
		{"destination holds it", locs{host(0), host(1), host(2)}, 1, nil, [2]int{srcHeld, srcHeld}},
		{"master holds what it pulls", locs{host(0), host(2)}, 0, nil, [2]int{srcHeld, srcHeld}},
		{"destination is the last holder", locs{host(2), host(3)}, 3, nil, [2]int{srcHeld, srcHeld}},
	} {
		dead := func(k int) bool { return slices.Contains(tc.dead, k) }
		for i, s2s := range []bool{false, true} {
			got := pickSource(tc.holders, tc.dst, s2s, dead)
			if got != tc.want[i] {
				t.Errorf("%s, s2s=%v: source %d, want %d", tc.name, s2s, got, tc.want[i])
			}
			if got == tc.dst {
				t.Errorf("%s, s2s=%v: the destination was chosen as source", tc.name, s2s)
			}
		}
	}
}
