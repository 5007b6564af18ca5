package mercurium

import (
	"fmt"

	"github.com/bsc-repro/ompss"
	"github.com/bsc-repro/ompss/internal/memspace"
	"github.com/bsc-repro/ompss/internal/task"
)

// Args carries one call's bound arguments: regions for pointer parameters,
// integers/floats for scalars, keyed by parameter name.
type Args struct {
	Regions map[string]memspace.Region
	Ints    map[string]int64
	Floats  map[string]float64
}

// Region returns the region bound to pointer parameter name.
func (a Args) Region(name string) memspace.Region { return a.Regions[name] }

// Float returns the float bound to scalar parameter name.
func (a Args) Float(name string) float64 { return a.Floats[name] }

// Kernel builds the task body for one call of an annotated function — the
// user-provided kernel of the paper's model.
type Kernel func(args Args) task.Work

// Instance is a compiled program bound to a runtime context and a kernel
// per task function. Calling an annotated function submits a task, exactly
// as Mercurium's generated code calls Nanos++.
type Instance struct {
	prog    *Program
	ctx     *ompss.Context
	kernels map[string]Kernel
}

// Bind attaches kernels to the program's task functions for execution in
// ctx. Every declared task needs a kernel.
func (p *Program) Bind(ctx *ompss.Context, kernels map[string]Kernel) (*Instance, error) {
	for name := range kernels {
		if _, ok := p.Tasks[name]; !ok {
			return nil, fmt.Errorf("mercurium: kernel for undeclared task %q", name)
		}
	}
	for _, name := range p.Order {
		if _, ok := kernels[name]; !ok {
			return nil, fmt.Errorf("mercurium: no kernel bound for task %q", name)
		}
	}
	return &Instance{prog: p, ctx: ctx, kernels: kernels}, nil
}

// call invokes annotated function name with positional arguments: a
// memspace.Region (or ompss.Region) per pointer parameter, an integer or
// float per scalar parameter. The dependence clauses are evaluated against
// the arguments and a task is submitted — "any call to the function
// creates a new task that will execute the function body".
func (in *Instance) call(name string, args ...interface{}) error {
	decl, ok := in.prog.Tasks[name]
	if !ok {
		return fmt.Errorf("mercurium: call of undeclared task %q", name)
	}
	if len(args) != len(decl.Params) {
		return fmt.Errorf("mercurium: %s expects %d arguments, got %d", name, len(decl.Params), len(args))
	}
	bound := Args{
		Regions: make(map[string]memspace.Region),
		Ints:    make(map[string]int64),
		Floats:  make(map[string]float64),
	}
	env := make(map[string]int64)
	for i, p := range decl.Params {
		switch v := args[i].(type) {
		case memspace.Region:
			if p.elemSize() == 0 {
				return fmt.Errorf("mercurium: %s parameter %s is scalar, got region", name, p.Name)
			}
			bound.Regions[p.Name] = v
		case int:
			bound.Ints[p.Name] = int64(v)
			env[p.Name] = int64(v)
		case int64:
			bound.Ints[p.Name] = v
			env[p.Name] = v
		case float64:
			bound.Floats[p.Name] = v
		case float32:
			bound.Floats[p.Name] = float64(v)
		default:
			return fmt.Errorf("mercurium: unsupported argument %T for %s.%s", args[i], name, p.Name)
		}
	}
	clauses := []ompss.Clause{ompss.Target(decl.Device), ompss.Name(name)}
	if !decl.CopyDeps {
		clauses = append(clauses, ompss.NoCopyDeps())
	}
	for _, d := range decl.Deps {
		p, ok := decl.param(d.Param)
		if !ok {
			return fmt.Errorf("mercurium: %s clause names unknown parameter %q", name, d.Param)
		}
		r, ok := bound.Regions[d.Param]
		if !ok {
			return fmt.Errorf("mercurium: %s dependence on scalar parameter %q", name, d.Param)
		}
		n, err := d.Len.Eval(env)
		if err != nil {
			return fmt.Errorf("mercurium: %s: %w", name, err)
		}
		if want := uint64(n) * p.elemSize(); want != r.Size {
			return fmt.Errorf("mercurium: %s: clause [%s] %s names %d bytes but the region holds %d (partial overlap is unsupported)",
				name, d.Len, d.Param, want, r.Size)
		}
		switch d.Access {
		case task.In:
			clauses = append(clauses, ompss.In(r))
		case task.Out:
			clauses = append(clauses, ompss.Out(r))
		case task.InOut:
			clauses = append(clauses, ompss.InOut(r))
		case task.Red:
			comb, err := combinerFor(p.Type)
			if err != nil {
				return fmt.Errorf("mercurium: %s: %w", name, err)
			}
			clauses = append(clauses, ompss.Reduction(r, comb))
		}
	}
	// The kernel body and its clause list both come from the registered
	// pragma at run time. Under Config.Validate the runtime checks the
	// body against exactly these clauses where it runs: a pragma that
	// under-declares fails the run with a memspace.ContractError.
	in.ctx.Task(in.kernels[name](bound), clauses...)
	return nil
}

// MustCall is call, panicking on error.
func (in *Instance) MustCall(name string, args ...interface{}) {
	if err := in.call(name, args...); err != nil {
		panic(err)
	}
}

// TaskWaitNoflush forwards to taskwait noflush.
func (in *Instance) TaskWaitNoflush() { in.ctx.TaskWaitNoflush() }

// combinerFor maps the element type of a reduction(+: …) item to its
// combiner; parse admits no other operator.
func combinerFor(typ string) (task.Combiner, error) {
	switch typ {
	case "float*":
		return ompss.SumFloat32, nil
	case "double*":
		return ompss.SumFloat64, nil
	default:
		return nil, fmt.Errorf("no + combiner for element type %q", typ)
	}
}
