//go:build crashsweep

package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
)

// TestCrashSweepFull runs every point of the crash sweep (`make
// crashsweep`, which sets the crashsweep build tag): the chain shape over
// GPUs {1, 2} × shards {1, 2} × NBC {off, on} × victim {1, 2, 3}; a double
// crash, victim 2 and then node 3 300 µs later, over the victim-2 chain
// shapes; the nested shape at 1 and 2 GPUs; and Heat at steps 1 over bsize
// {512, 640} × S2S {off, on}. Every one of those points must be ok. Heat at
// steps 2 and 4 is logged, not gated: a replay from the master's base is
// unsound once a later step has overwritten the ping-pong input it reads
// (ROADMAP item 1(3)).
func TestCrashSweepFull(t *testing.T) {
	all := func(int, time.Duration) bool { return true }
	set := func(name string, gated bool, shapes []sweepShape, victim int, also []faults.Crash) {
		points := make([][]sweepPoint, len(shapes))
		t.Run(name, func(t *testing.T) {
			for i, s := range shapes {
				t.Run(s.name, func(t *testing.T) {
					t.Parallel()
					points[i] = sweep(t, s, victim, also, all)
					t.Log(tally(points[i]))
					for _, p := range points[i] {
						if gated && p.class != "ok" {
							t.Errorf("%v", p)
						}
					}
				})
			}
		})
		t.Logf("%s: %s", name, tally(slices.Concat(points...)))
	}
	chains := func() []sweepShape {
		var out []sweepShape
		for _, gpus := range []int{1, 2} {
			for _, shards := range []int{1, 2} {
				for _, nbc := range []bool{false, true} {
					out = append(out, chainShape(gpus, shards, nbc))
				}
			}
		}
		return out
	}
	heat := func(steps int) []sweepShape {
		var out []sweepShape
		for _, bsize := range []int{512, 640} {
			for _, s2s := range []bool{false, true} {
				out = append(out, heatShape(bsize, steps, s2s))
			}
		}
		return out
	}
	for victim := 1; victim <= 3; victim++ {
		set(fmt.Sprintf("chain victim %d", victim), true, chains(), victim, nil)
	}
	set("double crash", true, chains(), 2, []faults.Crash{{Node: 3, At: 300 * time.Microsecond}})
	set("nested", true, []sweepShape{nestedShape(1), nestedShape(2)}, 2, nil)
	set("heat steps 1", true, heat(1), 2, nil)
	for _, steps := range []int{2, 4} {
		set(fmt.Sprintf("heat steps %d (not gated)", steps), false, heat(steps), 2, nil)
	}
}
