package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// modulePrefix starts the name of every function this repository defines.
// The test is a prefix, not a substring: generic instantiations of
// slices.* and sort.* carry our import paths inside their type arguments
// and must not be mistaken for module code.
const modulePrefix = "github.com/bsc-repro/ompss/"

// layerOfFrame returns the layer a function belongs to and whether it is
// module code at all: the path element after internal/ when it is one of
// layers, else "other".
func layerOfFrame(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if pkg, ok := strings.CutPrefix(rest, "internal/"); ok {
		if end := strings.IndexAny(pkg, "./"); end > 0 {
			pkg = pkg[:end]
		}
		for _, l := range layers {
			if l == pkg {
				return l, true
			}
		}
	}
	return "other", true
}

var (
	gcFrames    = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject", "runtime.greyobject", "runtime.markroot", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.(*gcControllerState)"}
	schedFrames = []string{"runtime.schedule", "runtime.park_m", "runtime.findRunnable", "runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.wakep", "runtime.stopm", "runtime.startm", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.ready", "runtime.runqgrab", "runtime.stealWork"}
)

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// bucketOf attributes one sample, given its stack innermost frame first:
// the innermost module frame names the layer; a stack with no module frame
// is Go runtime work, split into collector, scheduler and the rest.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOfFrame(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFrames) {
			return "go_runtime.gc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, schedFrames) {
			return "go_runtime.sched"
		}
	}
	return "go_runtime.other"
}

var (
	sampleLine = regexp.MustCompile(`^\s*(-?\d+)(ns|B)\s+(\S.*)$`)
	totalLine  = regexp.MustCompile(`Total samples = (\d+)ns`)
)

// parseTraces buckets the output of `go tool pprof -traces` run with
// -unit=ns (CPU) or -unit=B (allocations), so sample values are whole
// numbers. It returns the per-bucket sums, their total, and the total the
// profile header declares (0 when it declares none, as heap profiles do).
func parseTraces(r io.Reader) (buckets map[string]float64, sum, declared float64, err error) {
	buckets = map[string]float64{}
	var (
		value float64
		stack []string
	)
	flush := func() {
		if len(stack) > 0 {
			buckets[bucketOf(stack)] += value
			sum += value
		}
		value, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			if m := totalLine.FindStringSubmatch(line); m != nil {
				declared, _ = strconv.ParseFloat(m[1], 64)
			}
			continue
		}
		if len(stack) == 0 {
			// The sample's value sits on the line of its innermost frame;
			// lines before it are labels ("bytes:  80B" in heap profiles).
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if value, err = strconv.ParseFloat(m[1], 64); err != nil {
				return nil, 0, 0, fmt.Errorf("sample value %q: %w", m[1], err)
			}
			line = m[3]
		}
		if fn := strings.TrimSuffix(strings.TrimSpace(line), " (inline)"); fn != "" {
			stack = append(stack, fn)
		}
	}
	flush()
	return buckets, sum, declared, sc.Err()
}

// profileBuckets runs `go tool pprof -traces` on one profile file.
// sampleIndex selects the heap sample type ("alloc_space"); empty for CPU.
func profileBuckets(ctx context.Context, file, sampleIndex string) (map[string]float64, float64, float64, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-unit=B", "-sample_index="+sampleIndex)
	} else {
		args = append(args, "-unit=ns")
	}
	out, _, err := runChild(ctx, time.Minute, nil, "go", append(args, file)...)
	if err != nil {
		return nil, 0, 0, err
	}
	return parseTraces(bytes.NewReader(out))
}

// cpuSampleNS is the period of Go's CPU profiler (100 Hz).
const cpuSampleNS = 10e6

// stackless is the CPU time the profile header declares beyond what
// -traces printed. Go records roughly one CPU sample in two hundred with
// no location at all (the signal landed where the stack could not be
// walked) and -traces prints nothing for those, so a small shortfall is
// time nobody can attribute, not a fault of the bucketing rule. More than
// 5% of the profile or three samples, whichever is larger, or buckets that
// exceed the total, means the rule lost or invented samples.
func stackless(sum, declared float64) (float64, error) {
	rest := declared - sum
	if rest < 0 || rest > math.Max(0.05*declared, 3*cpuSampleNS) {
		return 0, fmt.Errorf("buckets sum to %.0fns, profile total is %.0fns", sum, declared)
	}
	return rest, nil
}
