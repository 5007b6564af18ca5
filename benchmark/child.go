package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// usage is what the kernel accounted to one finished child.
type usage struct {
	WallS  float64 // harness monotonic clock, start to reaped
	CPUS   float64 // user + system
	RSSMiB float64 // peak resident set
	NVCSw  int64   // voluntary context switches
	NIVCSw int64   // involuntary context switches
}

func (u *usage) add(o usage) {
	u.WallS += o.WallS
	u.CPUS += o.CPUS
	u.RSSMiB = max(u.RSSMiB, o.RSSMiB)
	u.NVCSw += o.NVCSw
	u.NIVCSw += o.NIVCSw
}

func usageOf(ps *os.ProcessState, wall time.Duration) usage {
	u := usage{WallS: wall.Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.CPUS = timevalSeconds(ru.Utime) + timevalSeconds(ru.Stime)
		u.RSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		u.NVCSw, u.NIVCSw = int64(ru.Nvcsw), int64(ru.Nivcsw)
	}
	return u
}

func timevalSeconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// runChild runs one program to completion under a timeout and returns its
// standard output and resource usage. A non-zero exit or a timeout is an
// error that carries the tail of standard error.
func runChild(ctx context.Context, timeout time.Duration, env []string, name string, args ...string) ([]byte, usage, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var u usage
	if cmd.ProcessState != nil {
		u = usageOf(cmd.ProcessState, wall)
	}
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			err = fmt.Errorf("timed out after %v", timeout)
		}
		tail := stderr.Bytes()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return nil, u, fmt.Errorf("%s %v: %w: %s", name, args, err, bytes.TrimSpace(tail))
	}
	return stdout.Bytes(), u, nil
}
