package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sched"
	"github.com/bsc-repro/ompss/internal/task"
)

// runSkewed runs one producer of a 1 MiB region and then consumers tasks
// that each add it into a small region of their own, under the
// affinity scheduler. Every consumer scores highest where the big region
// lives, so all of them queue behind one place while the others idle. It
// returns the stats, the cluster scheduler's steals (0 on one node) and
// whether every small region came out as the serial program leaves it.
func runSkewed(t *testing.T, nodes, gpus, consumers int) (Stats, int, bool) {
	t.Helper()
	rt := New(Config{Cluster: testCluster(nodes, gpus, 1<<26), Scheduler: sched.Affinity, Validate: true})
	exact := true
	stats, err := rt.Run(func(mc *MainCtx) {
		hot := mc.Alloc(1 << 20)
		mc.Submit(TaskDef{Name: "produce", Device: task.CUDA, Deps: []task.Dep{outDep(hot)},
			Work: setWork{r: hot, v: 1, cost: time.Millisecond}})
		own := make([]memspace.Region, consumers)
		for i := range own {
			own[i] = mc.Alloc(4096)
			mc.InitSeq(own[i], func(b []byte) { fill(b, byte(i)) })
			mc.Submit(TaskDef{Name: fmt.Sprintf("consume%d", i), Device: task.CUDA,
				Deps: []task.Dep{inDep(hot), inoutDep(own[i])},
				Work: mixWork{reads: []memspace.Region{hot}, w: own[i], accum: true, cost: 2 * time.Millisecond}})
		}
		mc.TaskWait()
		for i, r := range own {
			for _, b := range mc.HostBytes(r) {
				exact = exact && b == byte(i)+1
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	clusterSteals := 0
	if rt.clSch != nil {
		clusterSteals = rt.clSch.Steals()
	}
	return stats, clusterSteals, exact
}

// A node's places always steal, as the paper's affinity scheduler does:
// with no option set, the idle GPU takes work queued behind the GPU that
// holds the data, and the results stay exact.
func TestIdleGPUStealsFromAffinityQueue(t *testing.T) {
	const consumers = 16
	stats, _, exact := runSkewed(t, 1, 2, consumers)
	if !exact {
		t.Fatal("checksum differs from the serial result")
	}
	if stats.Steals == 0 {
		t.Fatal("no steal: the idle GPU never took work from the busy GPU's queue")
	}
	if stats.TasksCUDA != consumers+1 {
		t.Fatalf("ran %d CUDA tasks, want %d", stats.TasksCUDA, consumers+1)
	}
}

// The cluster level never steals between node queues (III.D.1): with
// every consumer bound to the node holding the data, the other node's
// communication-thread polls find nothing to take, and that node runs
// none of them.
func TestClusterNeverStealsBetweenNodes(t *testing.T) {
	const consumers = 12
	stats, steals, exact := runSkewed(t, 2, 1, consumers)
	if !exact {
		t.Fatal("checksum differs from the serial result")
	}
	if steals != 0 {
		t.Fatalf("the cluster scheduler stole %d tasks between node queues", steals)
	}
	if busiest := slices.Max(stats.TasksPerNode); busiest < consumers {
		t.Fatalf("tasks per node %v: the consumers spread over nodes, so the skew this test needs is gone", stats.TasksPerNode)
	}
}
