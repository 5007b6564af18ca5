package ompss

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// body wraps a task body as Work with a fixed modeled cost.
func body(label string, run func(s *memspace.Store)) Work {
	return task.FixedWork{Label: label, GPUTime: time.Millisecond, CPUTime: time.Millisecond, Body: run}
}

// saxpy is y[i] += a*x[i] over float32s.
func saxpy(x, y Region, a float32) Work {
	return body("saxpy", func(s *memspace.Store) {
		xs, ys := unsafeF32(s.Bytes(x)), unsafeF32(s.Bytes(y))
		for i := range ys {
			ys[i] += a * xs[i]
		}
	})
}

// fillBytes writes v into every byte of r.
func fillBytes(r Region, v byte) Work {
	return body("fill", func(s *memspace.Store) {
		b := s.Bytes(r)
		for i := range b {
			b[i] = v
		}
	})
}

// TestContractViolationsFail rebuilds each way a task body can break the
// contract of its clauses as a real validated task, on the host and on a
// GPU, and requires the run to fail with the named ContractError. Without
// the guard every one of them runs to completion with no error.
func TestContractViolationsFail(t *testing.T) {
	const n = 64 // float32s per vector region
	for _, tc := range []struct {
		name string
		// submit spawns the offending task over x, y and z (n float32s each,
		// x = 1, y = 2, z = 0) on dev and returns the region it should name.
		submit func(ctx *Context, dev Device, x, y, z Region) Region
		kind   ContractKind
	}{
		{"undeclared read", func(ctx *Context, dev Device, x, y, _ Region) Region {
			ctx.Task(saxpy(x, y, 3), Target(dev), InOut(y))
			return x
		}, UndeclaredAccess},
		{"undeclared write", func(ctx *Context, dev Device, _, _, z Region) Region {
			ctx.Task(fillBytes(z, 1), Target(dev))
			return z
		}, UndeclaredAccess},
		{"write to In", func(ctx *Context, dev Device, _, _, z Region) Region {
			ctx.Task(fillBytes(z, 2), Target(dev), In(z))
			return z
		}, WriteToIn},
		{"untouched clause", func(ctx *Context, dev Device, x, y, z Region) Region {
			// A gather whose third region is a field the body never reads.
			gather := body("gather", func(s *memspace.Store) { copy(s.Bytes(y), s.Bytes(x)) })
			ctx.Task(gather, Target(dev), In(x), Out(y), In(z))
			return z
		}, UnusedClause},
		{"clause reaching no field", func(ctx *Context, dev Device, _, y, z Region) Region {
			ctx.Task(fillBytes(y, 3), Target(dev), Out(y), In(z))
			return z
		}, UnusedClause},
		{"heat halo under-declared", func(ctx *Context, dev Device, x, y, _ Region) Region {
			// The Jacobi block reads one halo cell on each side of its
			// interior; the clause declares the interior only.
			halo := Region{Addr: x.Addr, Size: 10 * 8}
			interior := Region{Addr: x.Addr + 8, Size: 8 * 8}
			next := Region{Addr: y.Addr, Size: 8 * 8}
			ctx.Task(kernels.JacobiStep{In: halo, Out: next, LeftHalo: 1, RightHalo: 1, Alpha: 0.25},
				Target(dev), In(interior), Out(next))
			return halo
		}, UndeclaredAccess},
		{"N-Body init never touching Out(Vel)", func(ctx *Context, dev Device, x, y, _ Region) Region {
			// The init body that relied on a freshly zeroed store for the
			// velocities it declares.
			init := body("nbody-init", func(s *memspace.Store) {
				copy(unsafeF32(s.Bytes(x)), make([]float32, n))
			})
			ctx.Task(init, Target(dev), Out(x, y))
			return y
		}, UnusedClause},
	} {
		for _, dev := range []Device{SMP, CUDA} {
			var want Region
			_, err := New(testConfig(1)).Run(func(ctx *Context) {
				x, y, z := ctx.Alloc(n*4), ctx.Alloc(n*4), ctx.Alloc(n*4)
				ctx.InitSeq(x, func(b []byte) { fillF32(b, 1) })
				ctx.InitSeq(y, func(b []byte) { fillF32(b, 2) })
				ctx.InitSeq(z, nil)
				want = tc.submit(ctx, dev, x, y, z)
				ctx.TaskWait()
			})
			var ce *ContractError
			if !errors.As(err, &ce) || ce.Kind != tc.kind || ce.Region != want {
				t.Errorf("%s on %v: err = %v, want ContractError(%s %v)", tc.name, dev, err, tc.kind, want)
			}
		}
	}
}

// TestReadOfOutSeesPoison: a body that reads a region it declares Out only
// computes on the 0xFF poison (NaN) instead of the serial value 2 + 3*1,
// while the same body declared InOut computes the serial value.
func TestReadOfOutSeesPoison(t *testing.T) {
	for _, dev := range []Device{SMP, CUDA} {
		for _, tc := range []struct {
			clause  func(...Region) Clause
			name    string
			wantNaN bool
		}{{Out, "Out", true}, {InOut, "InOut", false}} {
			var got float32
			_, err := New(testConfig(1)).Run(func(ctx *Context) {
				x, y := ctx.Alloc(256), ctx.Alloc(256)
				ctx.InitSeq(x, func(b []byte) { fillF32(b, 1) })
				ctx.InitSeq(y, func(b []byte) { fillF32(b, 2) })
				ctx.Task(saxpy(x, y, 3), Target(dev), In(x), tc.clause(y))
				ctx.TaskWait()
				got = unsafeF32(ctx.HostBytes(y))[0]
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(float64(got)) != tc.wantNaN || (!tc.wantNaN && got != 5) {
				t.Errorf("%v, y declared %s: y[0] = %v, want NaN %v (serial: 5)", dev, tc.name, got, tc.wantNaN)
			}
		}
	}
}

func fillF32(b []byte, v float32) {
	f := unsafeF32(b)
	for i := range f {
		f[i] = v
	}
}
