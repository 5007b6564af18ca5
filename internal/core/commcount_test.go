package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
	"github.com/bsc-repro/ompss/internal/trace"
)

// A comm thread's count of open nodes — alive and below 1+Presend
// outstanding dispatches — is what lets its idle check decline without a
// sweep, so it must never drift: after every dispatch, retire and node
// death it equals a recount over the nodes the thread serves. Fault-free
// and with a node crashing while it has dispatches outstanding, at one and
// four comm threads over 8 and 64 nodes.
func TestCommOpenCountMatchesRecount(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, nodes := range []int{8, 64} {
			for _, crash := range []bool{false, true} {
				t.Run(fmt.Sprintf("threads=%d/nodes=%d/crash=%v", threads, nodes, crash), func(t *testing.T) {
					var plan *faults.Plan
					if crash {
						plan = &faults.Plan{Seed: 7, Crashes: []faults.Crash{{Node: 3, At: 1500 * time.Microsecond}}}
					}
					cfg := faultedCfg(nodes, plan)
					cfg.CommThreads, cfg.Presend, cfg.Validate = threads, 2, false
					rt := New(cfg)
					checks, drift := 0, ""
					rt.cl.onTrack = func() {
						checks++
						want := make([]int, threads)
						for k := range rt.nodes {
							if !rt.nodeIsDead(k) && rt.cl.outstanding[k] < 1+cfg.Presend {
								want[k%threads]++
							}
						}
						for i, n := range want {
							if rt.cl.open[i] != n && drift == "" {
								drift = fmt.Sprintf("check %d at %v: thread %d counts %d open nodes, a recount finds %d",
									checks, rt.e.Now(), i, rt.cl.open[i], n)
							}
						}
					}
					stats, err := rt.Run(func(mc *MainCtx) {
						regs := make([]memspace.Region, nodes)
						for i := range regs {
							regs[i] = mc.Alloc(1 << 12)
						}
						for round := 0; round < 3; round++ {
							for _, r := range regs {
								mc.Submit(TaskDef{Name: "inc", Device: task.CUDA, Deps: []task.Dep{inoutDep(r)},
									Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
							}
						}
						mc.TaskWait()
					})
					if drift != "" {
						t.Fatal(drift)
					}
					if err != nil {
						t.Fatal(err)
					}
					if want := 2 * 3 * nodes; checks < want {
						t.Fatalf("%d checks, want >= %d (a dispatch and a retire per task)", checks, want)
					}
					if crash && stats.TasksReexecuted == 0 {
						t.Fatal("node 3 died with no dispatch outstanding; move the crash")
					}
				})
			}
		}
	}
}

// The fault paths of the staging chains, with NonBlockingCache off and on
// and one and two manager shards. Slave 1 produces its regions on a GPU —
// write-back, so that GPU holds the only current copy — and a later task on
// one of them runs on another slave, which has slave 1 push it: D2H into its
// host, then on over the wire. Slave 1 dies at points spread over that
// transfer. In its first sixth, the D2H copy of the push, the master's
// transfer from slave 1 fails once the node is declared dead; the region's
// only copy died with it, so it is fenced while its producers re-run, and
// the dispatch chain staging it parks in waitRestore on the fence until the
// rebuild lifts it. Every run must be checksum-exact against serial,
// replay bit-identically, and keep the comm thread's open count equal to a
// recount after every change.
func TestChainFaultPathsRecountAndReplay(t *testing.T) {
	const victim = 1
	for _, nbc := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("nbc=%v/shards=%d", nbc, shards), func(t *testing.T) {
				rec := trace.New()
				chainRun(t, 2, nbc, shards, &faults.Plan{Seed: 5}, rec)
				var push trace.Span
				for _, s := range rec.Spans() {
					if s.Kind == trace.NetSend && s.Node == victim && s.Name == "s->s" {
						push = s
						break
					}
				}
				if push.End == 0 {
					t.Fatalf("node %d pushed nothing to a slave; reshape the workload", victim)
				}
				for _, at40 := range []sim.Time{2, 4, 6, 20, 35} {
					at := push.Start + (push.End-push.Start)*at40/40
					plan := &faults.Plan{Seed: 5, Crashes: []faults.Crash{{Node: victim, At: time.Duration(at)}}}
					stats, results := chainRun(t, 2, nbc, shards, plan, nil)
					checkAll(t, results, chainRounds)
					if again, _ := chainRun(t, 2, nbc, shards, plan, nil); again != stats {
						t.Fatalf("crash at %v: the replay diverged:\n%s\nvs\n%s", at, stats, again)
					}
				}
			})
		}
	}
}

// chainRounds is how many inc tasks chainRun submits on each region, and
// so the byte each region must end at.
const chainRounds = 3

// chainRun runs chainShape's workload under plan. It fails t when Run errs, when
// the comm thread's open count ever differs from a recount, or when a
// planned crash did not kill exactly one node, and returns the run's Stats,
// formatted, and each region's first byte.
func chainRun(t *testing.T, gpus int, nbc bool, shards int, plan *faults.Plan, rec *trace.Recorder) (string, []byte) {
	t.Helper()
	s := chainShape(gpus, shards, nbc)
	cfg := s.cfg
	cfg.Faults, cfg.Trace = plan, rec
	rt := New(cfg)
	drift := ""
	rt.cl.onTrack = func() {
		open := 0
		for k := range rt.nodes {
			if !rt.nodeIsDead(k) && rt.cl.outstanding[k] < 1+cfg.Presend {
				open++
			}
		}
		if rt.cl.open[0] != open && drift == "" {
			drift = fmt.Sprintf("at %v the comm thread counts %d open nodes, a recount finds %d", rt.e.Now(), rt.cl.open[0], open)
		}
	}
	var results []byte
	stats, err := rt.Run(func(mc *MainCtx) { results = s.main(mc) })
	if err != nil {
		t.Fatal(err)
	}
	if drift != "" {
		t.Fatal(drift)
	}
	if plan.Crashes != nil && stats.DeadNodes != 1 {
		t.Fatalf("crash at %v: %d dead nodes, want 1", plan.Crashes[0].At, stats.DeadNodes)
	}
	return fmt.Sprintf("%+v", stats), results
}
