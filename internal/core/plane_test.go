package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/task"
)

// TestPlaneWidthIsInvisible: the random overlap graphs land the serial
// bytes, and the contract and kernel failures return the same error, with
// one plane worker and with many.
func TestPlaneWidthIsInvisible(t *testing.T) {
	failures := []struct {
		name   string
		nodes  int
		submit func(mc *MainCtx, r, other memspace.Region)
	}{
		{"kernel bug", 2, func(mc *MainCtx, r, _ memspace.Region) {
			mc.Submit(TaskDef{Name: "bad", Device: task.CUDA, Deps: []task.Dep{inoutDep(r)},
				Work: badWork{incWork{r: r, delta: 1, cost: time.Millisecond}}})
		}},
		{"undeclared access", 1, func(mc *MainCtx, r, other memspace.Region) {
			mc.Submit(TaskDef{Name: "stray", Device: task.SMP, Deps: []task.Dep{inoutDep(r)},
				Work: incWork{r: other, delta: 1, cost: time.Millisecond}})
		}},
		{"write to In", 2, func(mc *MainCtx, r, _ memspace.Region) {
			mc.Submit(TaskDef{Name: "writer", Device: task.CUDA, Deps: []task.Dep{inDep(r)},
				Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
		}},
		{"unused clause", 1, func(mc *MainCtx, r, other memspace.Region) {
			mc.Submit(TaskDef{Name: "idle", Device: task.CUDA, Deps: []task.Dep{inoutDep(r), inDep(other)},
				Work: incWork{r: r, delta: 1, cost: time.Millisecond}})
		}},
		{"two failures", 2, func(mc *MainCtx, r, other memspace.Region) {
			// Independent tasks on two nodes: the one whose body is
			// posted first names the error, however the plane runs them.
			for i, reg := range []memspace.Region{r, other} {
				mc.Submit(TaskDef{Name: fmt.Sprintf("bad%d", i), Device: task.CUDA, Deps: []task.Dep{inoutDep(reg)},
					Work: badWork{incWork{r: reg, delta: 1, cost: time.Duration(i+1) * time.Millisecond}}})
			}
		}},
	}
	errs := map[string]string{}
	for _, w := range PlaneWidths {
		WithPlaneWorkers(w, func() {
			for _, tc := range overlapShapes {
				cfg := baseCfg(tc.nodes, tc.gpus)
				cfg.Cluster = testCluster(tc.nodes, tc.gpus, tc.devMem)
				matchSerial(t, cfg, overlapArena, overlapProgram(tc.seed, 48))
			}
			for _, tc := range failures {
				_, err := New(baseCfg(tc.nodes, 1)).Run(func(mc *MainCtx) {
					r, other := mc.Alloc(1024), mc.Alloc(1024)
					mc.InitSeq(r, nil)
					mc.InitSeq(other, nil)
					tc.submit(mc, r, other)
					mc.TaskWait()
				})
				var pp *sim.ProcPanicError
				if !errors.As(err, &pp) {
					t.Fatalf("%s, %d workers: err = %v, want a ProcPanicError", tc.name, w, err)
				}
				got := fmt.Sprint(pp.Value)
				if want, seen := errs[tc.name]; seen && got != want {
					t.Errorf("%s: %d workers fail with %q, one with %q", tc.name, w, got, want)
				}
				errs[tc.name] = got
			}
		})
	}
}

// planeProbe is a body that records whether it ran on a plane worker.
type planeProbe struct {
	incWork
	onPlane *bool
}

func (w planeProbe) Run(store *memspace.Store) {
	w.incWork.Run(store)
	buf := make([]byte, 1<<14)
	*w.onPlane = bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("memspace.(*Plane).work"))
}

// TestPlaneOnlyInValidatedRuns: a cost-only run has no plane and no store,
// so it starts no plane goroutine and every would-be op is a nil check; a
// validated run's bodies run on plane workers, none of which outlives Run.
func TestPlaneOnlyInValidatedRuns(t *testing.T) {
	for _, validate := range []bool{false, true} {
		cfg := baseCfg(2, 1)
		cfg.Validate = validate
		rt := New(cfg)
		onPlane := false
		_, err := rt.Run(func(mc *MainCtx) {
			r := mc.Alloc(1024)
			mc.InitSeq(r, nil)
			mc.Submit(TaskDef{Name: "probe", Device: task.CUDA, Deps: []task.Dep{inoutDep(r)},
				Work: planeProbe{incWork{r: r, delta: 1, cost: time.Millisecond}, &onPlane}})
			mc.TaskWait()
		})
		if err != nil {
			t.Fatal(err)
		}
		stores := rt.master().hostStore != nil
		for _, n := range rt.nodes {
			for _, d := range n.devs {
				stores = stores || d.Store() != nil
			}
		}
		if (rt.plane != nil) != validate || stores != validate || onPlane != validate {
			t.Fatalf("validate %v: plane %v, stores %v, body on a plane worker %v", validate, rt.plane != nil, stores, onPlane)
		}
		// The last worker has left the plane when Run returns; give its
		// goroutine a moment to be gone too.
		buf := make([]byte, 1<<20)
		for try := 0; ; try++ {
			all := buf[:runtime.Stack(buf, true)]
			if !bytes.Contains(all, []byte("memspace.(*Plane).work")) {
				break
			}
			if try == 100 {
				t.Fatalf("validate %v: a plane worker outlived Run:\n%s", validate, all)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
