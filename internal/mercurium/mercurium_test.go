package mercurium

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/kernels"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// figure2 is the STREAM annotation of the paper's Figure 2, verbatim in
// structure.
const figure2 = `
#pragma omp target device(cuda) copy_deps
#pragma omp task input([N] a) output([N] c)
void copy(double *a, double *c, int N);

#pragma omp target device(cuda) copy_deps
#pragma omp task input([N] c) output([N] b)
void scale(double *b, double *c, double scalar, int N);

#pragma omp target device(cuda) copy_deps
#pragma omp task input([N] a, [N] b) output([N] c)
void add(double *a, double *b, double *c, int N);

#pragma omp target device(cuda) copy_deps
#pragma omp task input([N] b, [N] c) output([N] a)
void triad(double *a, double *b, double *c, double scalar, int N);
`

func TestParseFigure2(t *testing.T) {
	prog := MustParse(figure2)
	if len(prog.Order) != 4 {
		t.Fatalf("tasks = %v", prog.Order)
	}
	cp := prog.Tasks["copy"]
	if cp.Device != task.CUDA || !cp.CopyDeps {
		t.Fatalf("copy decl = %+v", cp)
	}
	if len(cp.Params) != 3 || cp.Params[0].Type != "double*" || cp.Params[2].Type != "int" {
		t.Fatalf("copy params = %+v", cp.Params)
	}
	if len(cp.Deps) != 2 || cp.Deps[0].Access != task.In || cp.Deps[1].Access != task.Out {
		t.Fatalf("copy deps = %+v", cp.Deps)
	}
	tr := prog.Tasks["triad"]
	if len(tr.Deps) != 3 || tr.Deps[2].Param != "a" || tr.Deps[2].Access != task.Out {
		t.Fatalf("triad deps = %+v", tr.Deps)
	}
}

func TestParseMatmulStyle(t *testing.T) {
	prog := MustParse(`
#pragma omp target device(cuda) copy_deps
#pragma omp task input([BS*BS] a, [BS*BS] b) inout([BS*BS] c)
void sgemm(float *a, float *b, float *c, int BS);
`)
	d := prog.Tasks["sgemm"]
	if len(d.Deps) != 3 {
		t.Fatalf("deps = %+v", d.Deps)
	}
	n, err := d.Deps[0].Len.Eval(map[string]int64{"BS": 16})
	if err != nil || n != 256 {
		t.Fatalf("len eval = %d, %v", n, err)
	}
	if d.Deps[2].Access != task.InOut {
		t.Fatalf("c access = %v", d.Deps[2].Access)
	}
}

func TestParseSMPDefaultDevice(t *testing.T) {
	prog := MustParse(`
#pragma omp task inout([N] x)
void bump(double *x, int N);
`)
	if prog.Tasks["bump"].Device != task.SMP {
		t.Fatal("default device should be SMP")
	}
	if prog.Tasks["bump"].CopyDeps {
		t.Fatal("copy_deps should be off without a target directive")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no tasks":          `int main() { return 0; }`,
		"dangling target":   "#pragma omp target device(cuda)\n",
		"bad device":        "#pragma omp target device(fpga)\n#pragma omp task input([N] a)\nvoid f(float *a, int N);",
		"non-void":          "#pragma omp task input([N] a)\nint f(float *a, int N);",
		"bad type":          "#pragma omp task input([N] a)\nvoid f(char *a, int N);",
		"unterminated sect": "#pragma omp task input([N a)\nvoid f(float *a, int N);",
		"bad clause":        "#pragma omp task priority(3)\nvoid f(float *x);",
		"target no task":    "#pragma omp target device(cuda)\nvoid f(float *a);",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSplitClauses(t *testing.T) {
	got := splitClauses("input([N] a, [N] b) output([N] c)")
	if len(got) != 2 || !strings.HasPrefix(got[0], "input(") || !strings.HasPrefix(got[1], "output(") {
		t.Fatalf("splitClauses = %q", got)
	}
}

// TestStreamThroughMercurium runs a small STREAM entirely through parsed
// directives and checks the numbers against the closed form.
func TestStreamThroughMercurium(t *testing.T) {
	const n = 4096
	const scalar = 3.0
	prog := MustParse(figure2)
	cfg := ompss.Config{Cluster: ompss.MultiGPUSystem(2), Validate: true}
	rt := ompss.New(cfg)
	var got float64
	_, err := rt.Run(func(ctx *ompss.Context) {
		inst, err := prog.Bind(ctx, map[string]Kernel{
			"copy": func(a Args) task.Work {
				return kernels.StreamCopy{A: a.Region("a"), C: a.Region("c")}
			},
			"scale": func(a Args) task.Work {
				return kernels.StreamScale{C: a.Region("c"), B: a.Region("b"), Scalar: a.Float("scalar")}
			},
			"add": func(a Args) task.Work {
				return kernels.StreamAdd{A: a.Region("a"), B: a.Region("b"), C: a.Region("c")}
			},
			"triad": func(a Args) task.Work {
				return kernels.StreamTriad{B: a.Region("b"), C: a.Region("c"), A: a.Region("a"), Scalar: a.Float("scalar")}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		a := ctx.Alloc(n * 8)
		b := ctx.Alloc(n * 8)
		c := ctx.Alloc(n * 8)
		ctx.InitSeq(a, func(buf []byte) { fillF64(buf, 1) })
		ctx.InitSeq(b, func(buf []byte) { fillF64(buf, 2) })
		ctx.InitSeq(c, nil)
		for k := 0; k < 2; k++ {
			inst.MustCall("copy", a, c, n)
			inst.MustCall("scale", b, c, scalar, n)
			inst.MustCall("add", a, b, c, n)
			inst.MustCall("triad", a, b, c, scalar, n)
		}
		inst.TaskWait()
		got = f64At(ctx.HostBytes(a), 17)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration: c=a; b=3a; c=a+3a=4a; a=3a+3*4a=15a. Two: 225.
	if got != 225 {
		t.Fatalf("a[17] = %v, want 225", got)
	}
}

func TestCallErrors(t *testing.T) {
	prog := MustParse(figure2)
	cfg := ompss.Config{Cluster: ompss.MultiGPUSystem(1)}
	rt := ompss.New(cfg)
	_, err := rt.Run(func(ctx *ompss.Context) {
		noKernels := map[string]Kernel{}
		if _, err := prog.Bind(ctx, noKernels); err == nil {
			t.Error("Bind without kernels should fail")
		}
		all := map[string]Kernel{
			"copy":  func(Args) task.Work { return task.NoWork{} },
			"scale": func(Args) task.Work { return task.NoWork{} },
			"add":   func(Args) task.Work { return task.NoWork{} },
			"triad": func(Args) task.Work { return task.NoWork{} },
		}
		if _, err := prog.Bind(ctx, map[string]Kernel{"nosuch": all["copy"]}); err == nil {
			t.Error("Bind with undeclared kernel should fail")
		}
		inst, err := prog.Bind(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		a := ctx.Alloc(64 * 8)
		c := ctx.Alloc(64 * 8)
		if err := inst.Call("nosuch"); err == nil {
			t.Error("calling undeclared task should fail")
		}
		if err := inst.Call("copy", a, c); err == nil {
			t.Error("arity mismatch should fail")
		}
		if err := inst.Call("copy", a, c, 99); err == nil {
			t.Error("size mismatch should fail (99 != 64 elements)")
		}
		if err := inst.Call("copy", 1, c, 64); err == nil {
			t.Error("scalar for pointer parameter should fail")
		}
		if err := inst.Call("copy", a, c, 64); err != nil {
			t.Errorf("well-formed call failed: %v", err)
		}
		inst.TaskWaitNoflush()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnderDeclaredPragmaFails: a registered pragma's clauses and the kernel
// bound to it meet only at run time, inside Call, so nothing static can
// compare them. Under Validate the runtime checks the kernel against exactly
// the clauses Call evaluated: a pragma that says input for a parameter the
// kernel writes, or omits one the kernel reads, fails the run.
func TestUnderDeclaredPragmaFails(t *testing.T) {
	const n = 256
	saxpy := func(a Args) task.Work {
		x, y, alpha := a.Region("x"), a.Region("y"), float32(a.Float("a"))
		return task.FixedWork{Label: "saxpy", GPUTime: time.Millisecond, Body: func(s *memspace.Store) {
			xs, ys := f32view(s.Bytes(x)), f32view(s.Bytes(y))
			for i := range ys {
				ys[i] += alpha * xs[i]
			}
		}}
	}
	for _, tc := range []struct {
		name, clauses string
		kind          ompss.ContractKind
	}{
		{"input for a written parameter", "input([N] x, [N] y)", ompss.WriteToIn},
		{"read parameter omitted", "inout([N] y)", ompss.UndeclaredAccess},
	} {
		prog := MustParse("#pragma omp target device(cuda) copy_deps\n#pragma omp task " + tc.clauses +
			"\nvoid saxpy(float *x, float *y, float a, int N);")
		rt := ompss.New(ompss.Config{Cluster: ompss.MultiGPUSystem(1), Validate: true})
		_, err := rt.Run(func(ctx *ompss.Context) {
			inst, err := prog.Bind(ctx, map[string]Kernel{"saxpy": saxpy})
			if err != nil {
				t.Fatal(err)
			}
			x, y := ctx.Alloc(n*4), ctx.Alloc(n*4)
			ctx.InitSeq(x, func(b []byte) { fillF32(b, 1) })
			ctx.InitSeq(y, func(b []byte) { fillF32(b, 2) })
			inst.MustCall("saxpy", x, y, float32(3), n)
			inst.TaskWait()
		})
		var ce *ompss.ContractError
		if !errors.As(err, &ce) || ce.Kind != tc.kind {
			t.Errorf("%s: err = %v, want ContractError(%s)", tc.name, err, tc.kind)
		}
	}
}

func fillF64(b []byte, v float64) {
	f := f64view(b)
	for i := range f {
		f[i] = v
	}
}

func f64At(b []byte, i int) float64 { return f64view(b)[i] }

// dotWork is the kernel bound to the parsed dot declaration: it adds the
// dot product of x and y into acc[0], in float64 when f64 is set and in
// float32 otherwise.
type dotWork struct {
	x, y, acc memspace.Region
	f64       bool
}

func (w dotWork) Name() string                      { return "dot" }
func (w dotWork) GPUCost(hw.GPUSpec) time.Duration  { return time.Millisecond }
func (w dotWork) CPUCost(hw.NodeSpec) time.Duration { return time.Millisecond }
func (w dotWork) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	if w.f64 {
		dotInto(f64view(store.Bytes(w.x)), f64view(store.Bytes(w.y)), f64view(store.Bytes(w.acc)))
		return
	}
	dotInto(f32view(store.Bytes(w.x)), f32view(store.Bytes(w.y)), f32view(store.Bytes(w.acc)))
}

func dotInto[F float32 | float64](x, y, acc []F) {
	var s F
	for i := range x {
		s += x[i] * y[i]
	}
	acc[0] += s
}

// TestReductionThroughMercurium runs a dot product from a reduction(+: …)
// pragma for each element type that has a combiner: concurrent chunk tasks
// on two GPUs accumulate private partials, the combiner the declared type
// binds folds them, and the result is exact. An operator other than + and
// an element type with no combiner are rejected.
func TestReductionThroughMercurium(t *testing.T) {
	const chunks, n = 4, 256
	for _, tc := range []struct {
		typ  string
		size uint64
		want task.Combiner
	}{
		{"float", 4, ompss.SumFloat32},
		{"double", 8, ompss.SumFloat64},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			if comb, err := combinerFor(tc.typ + "*"); err != nil || reflect.ValueOf(comb).Pointer() != reflect.ValueOf(tc.want).Pointer() {
				t.Errorf("%s*: combiner is not the elementwise sum of its type (%v)", tc.typ, err)
			}
			prog := MustParse(fmt.Sprintf(`
#pragma omp target device(cuda) copy_deps
#pragma omp task input([N] x, [N] y) reduction(+: acc)
void dot(%[1]s *x, %[1]s *y, %[1]s *acc, int N);
`, tc.typ))
			var got, want float64
			rt := ompss.New(ompss.Config{Cluster: ompss.MultiGPUSystem(2), Validate: true})
			_, err := rt.Run(func(ctx *ompss.Context) {
				inst, err := prog.Bind(ctx, map[string]Kernel{"dot": func(a Args) task.Work {
					return dotWork{x: a.Region("x"), y: a.Region("y"), acc: a.Region("acc"), f64: tc.size == 8}
				}})
				if err != nil {
					t.Fatal(err)
				}
				fill := func(b []byte, v float64) {
					if tc.size == 8 {
						fillF64(b, v)
					} else {
						fillF32(b, float32(v))
					}
				}
				acc := ctx.Alloc(tc.size)
				ctx.InitSeq(acc, nil)
				for c := 0; c < chunks; c++ {
					x, y := ctx.Alloc(n*tc.size), ctx.Alloc(n*tc.size)
					val := float64(c + 1)
					ctx.InitSeq(x, func(b []byte) { fill(b, val) })
					ctx.InitSeq(y, func(b []byte) { fill(b, 2) })
					want += val * 2 * n
					inst.MustCall("dot", x, y, acc, n)
				}
				inst.TaskWait()
				if tc.size == 8 {
					got = f64At(ctx.HostBytes(acc), 0)
				} else {
					got = float64(f32view(ctx.HostBytes(acc))[0])
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s dot = %v, want %v", tc.typ, got, want)
			}
		})
	}

	t.Run("unsupported-operator", func(t *testing.T) {
		if _, err := Parse("#pragma omp task reduction(*: acc)\nvoid f(float *acc);"); err == nil || !strings.Contains(err.Error(), `unsupported reduction operator "*"`) {
			t.Errorf("reduction(*: …): err = %v, want the unsupported-operator error", err)
		}
	})
	t.Run("no-combiner", func(t *testing.T) {
		prog := MustParse("#pragma omp task reduction(+: acc)\nvoid f(int *acc);")
		rt := ompss.New(ompss.Config{Cluster: ompss.MultiGPUSystem(1)})
		_, err := rt.Run(func(ctx *ompss.Context) {
			inst, err := prog.Bind(ctx, map[string]Kernel{"f": func(Args) task.Work { return task.NoWork{} }})
			if err != nil {
				t.Fatal(err)
			}
			err = inst.Call("f", ctx.Alloc(4))
			if err == nil || !strings.Contains(err.Error(), `no + combiner for element type "int*"`) {
				t.Errorf("int* reduction: err = %v, want the no-combiner error", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// figure1 is the Matrix Multiply annotation of the paper's Figure 1: the
// CUBLAS sgemm call wrapped as a CUDA task over BS x BS tiles.
const figure1 = `
#pragma omp target device(cuda) copy_deps
#pragma omp task input([BS*BS] a, [BS*BS] b) inout([BS*BS] c)
void matmul_tile(float *a, float *b, float *c, int BS);
`

// TestMatmulThroughMercurium runs a full tiled matrix multiply from the
// Figure 1 declaration and checks the numbers against the serial
// reference — the paper's headline program, end to end through the
// front end and the runtime.
func TestMatmulThroughMercurium(t *testing.T) {
	const n, bs = 48, 12
	nt := n / bs
	prog := MustParse(figure1)
	cfg := ompss.Config{Cluster: ompss.MultiGPUSystem(2), Validate: true}
	rt := ompss.New(cfg)
	var got float64
	_, err := rt.Run(func(ctx *ompss.Context) {
		inst, err := prog.Bind(ctx, map[string]Kernel{
			"matmul_tile": func(a Args) task.Work {
				return kernels.Sgemm{A: a.Region("a"), B: a.Region("b"), C: a.Region("c"), BS: int(a.Int("BS"))}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tiles := func(seedBase int) []ompss.Region {
			ts := make([]ompss.Region, nt*nt)
			for i := range ts {
				i := i
				ts[i] = ctx.Alloc(bs * bs * 4)
				ctx.InitSeq(ts[i], func(buf []byte) {
					v := f32view(buf)
					s := uint32(seedBase+i)*2654435761 + 12345
					for j := range v {
						s = s*1664525 + 1013904223
						v[j] = float32(s%1000) / 1000
					}
				})
			}
			return ts
		}
		a, b := tiles(0), tiles(nt*nt)
		c := make([]ompss.Region, nt*nt)
		for i := range c {
			c[i] = ctx.Alloc(bs * bs * 4)
			ctx.InitSeq(c[i], nil)
		}
		// The paper's triple loop of task-spawning calls.
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					inst.MustCall("matmul_tile", a[i*nt+k], b[k*nt+j], c[i*nt+j], bs)
				}
			}
		}
		inst.TaskWait()
		for _, tile := range c {
			for _, v := range f32view(ctx.HostBytes(tile)) {
				got += float64(v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference with the same fill pattern (apps.MatmulSerialOut
	// uses the identical LCG; recompute inline to avoid an import cycle).
	want := serialMatmulSum(n, bs)
	if diff := got - want; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
}

// serialMatmulSum computes the reference checksum for the Figure 1 test.
func serialMatmulSum(n, bs int) float64 {
	nt := n / bs
	fill := func(seed uint32) []float32 {
		v := make([]float32, bs*bs)
		s := seed*2654435761 + 12345
		for i := range v {
			s = s*1664525 + 1013904223
			v[i] = float32(s%1000) / 1000
		}
		return v
	}
	a := make([][]float32, nt*nt)
	b := make([][]float32, nt*nt)
	c := make([][]float32, nt*nt)
	for t := range a {
		a[t] = fill(uint32(t))
		b[t] = fill(uint32(t + nt*nt))
		c[t] = make([]float32, bs*bs)
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				at, bt, ct := a[i*nt+k], b[k*nt+j], c[i*nt+j]
				for ii := 0; ii < bs; ii++ {
					for kk := 0; kk < bs; kk++ {
						aik := at[ii*bs+kk]
						for jj := 0; jj < bs; jj++ {
							ct[ii*bs+jj] += aik * bt[kk*bs+jj]
						}
					}
				}
			}
		}
	}
	var sum float64
	for _, tile := range c {
		for _, v := range tile {
			sum += float64(v)
		}
	}
	return sum
}
