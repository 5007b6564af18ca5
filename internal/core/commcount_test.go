package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
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
