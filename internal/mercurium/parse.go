// Package mercurium is the front end playing the role of the paper's
// Mercurium source-to-source compiler (Section III.A): it recognizes the
// OmpSs directives on annotated function declarations and turns them into
// runtime calls. The paper's compiler has a "relatively minor role" — the
// dependence clauses become expressions evaluated at call time to produce
// the memory regions handed to Nanos++ — and that is exactly what this
// package does for the annotated-C subset its examples use:
//
//	#pragma omp target device(cuda) copy_deps
//	#pragma omp task input([N] a, [N] b) output([N] c)
//	void add(double *a, double *b, double *c, int N);
//
// Kernel bodies are not compiled (they are user-provided in the paper
// too); the binder attaches a Go kernel to each declared task.
package mercurium

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/bsc-repro/ompss/internal/task"
)

// Access re-exports the dependence direction.
type Access = task.Access

// Param is one parameter of an annotated function.
type Param struct {
	Name string
	Type string // "float*", "double*", "int", "float", "double"
}

// ElemSize returns the pointee size of a pointer parameter (0 for scalars).
func (p Param) ElemSize() uint64 {
	switch p.Type {
	case "float*":
		return 4
	case "double*":
		return 8
	case "int*":
		return 4
	default:
		return 0
	}
}

// Dep is one parsed dependence clause item: a length expression applied to
// a parameter, e.g. "[N*N] a".
type Dep struct {
	Len    Expr
	Param  string
	Access Access
}

// TaskDecl is one annotated function declaration.
type TaskDecl struct {
	Name     string
	Device   task.Device
	CopyDeps bool
	Params   []Param
	Deps     []Dep
}

// Param returns the named parameter declaration.
func (d *TaskDecl) Param(name string) (Param, bool) {
	for _, p := range d.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Program is a set of parsed task declarations.
type Program struct {
	Tasks map[string]*TaskDecl
	Order []string
}

// Expr is a length expression: an integer literal, a parameter reference,
// or a product of expressions (the paper's clauses use sizes like [N] and
// [BS*BS]).
type Expr interface {
	Eval(env map[string]int64) (int64, error)
	String() string
}

type intLit int64

func (l intLit) Eval(map[string]int64) (int64, error) { return int64(l), nil }
func (l intLit) String() string                       { return strconv.FormatInt(int64(l), 10) }

type ref string

func (r ref) Eval(env map[string]int64) (int64, error) {
	v, ok := env[string(r)]
	if !ok {
		return 0, fmt.Errorf("mercurium: unbound identifier %q in clause expression", string(r))
	}
	return v, nil
}
func (r ref) String() string { return string(r) }

type mul struct{ a, b Expr }

func (m mul) Eval(env map[string]int64) (int64, error) {
	a, err := m.a.Eval(env)
	if err != nil {
		return 0, err
	}
	b, err := m.b.Eval(env)
	if err != nil {
		return 0, err
	}
	return a * b, nil
}
func (m mul) String() string { return m.a.String() + "*" + m.b.String() }

// Parse reads annotated source: pairs (or single lines) of
// `#pragma omp target ...` / `#pragma omp task ...` directives followed by
// a C function declaration. Anything else (blank lines, comments, plain C)
// is skipped, as a source-to-source compiler would pass it through.
func Parse(src string) (*Program, error) {
	prog := &Program{Tasks: make(map[string]*TaskDecl)}
	lines := strings.Split(src, "\n")
	var pendingTarget, pendingTask string
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "#pragma omp target"):
			if pendingTarget != "" {
				return nil, fmt.Errorf("line %d: duplicate target directive", ln+1)
			}
			pendingTarget = strings.TrimSpace(strings.TrimPrefix(line, "#pragma omp target"))
		case strings.HasPrefix(line, "#pragma omp task"):
			if pendingTask != "" {
				return nil, fmt.Errorf("line %d: duplicate task directive", ln+1)
			}
			pendingTask = strings.TrimSpace(strings.TrimPrefix(line, "#pragma omp task"))
		case pendingTask != "" && line != "" && !strings.HasPrefix(line, "//"):
			decl, err := parseDecl(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			if err := applyTaskClauses(decl, pendingTask); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
			if pendingTarget != "" {
				if err := applyTargetClauses(decl, pendingTarget); err != nil {
					return nil, fmt.Errorf("line %d: %w", ln+1, err)
				}
			}
			if _, dup := prog.Tasks[decl.Name]; dup {
				return nil, fmt.Errorf("line %d: duplicate task function %q", ln+1, decl.Name)
			}
			prog.Tasks[decl.Name] = decl
			prog.Order = append(prog.Order, decl.Name)
			pendingTarget, pendingTask = "", ""
		case pendingTarget != "" && line != "" && !strings.HasPrefix(line, "//"):
			return nil, fmt.Errorf("line %d: target directive without task directive", ln+1)
		}
	}
	if pendingTask != "" || pendingTarget != "" {
		return nil, fmt.Errorf("mercurium: dangling directive at end of source")
	}
	if len(prog.Tasks) == 0 {
		return nil, fmt.Errorf("mercurium: no task declarations found")
	}
	return prog, nil
}

// MustParse is Parse, panicking on error (for tests and examples).
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseDecl parses `void name(type a, type b, ...);`.
func parseDecl(line string) (*TaskDecl, error) {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if open < 0 || close < open {
		return nil, fmt.Errorf("malformed function declaration %q", line)
	}
	head := strings.Fields(line[:open])
	if len(head) != 2 || head[0] != "void" {
		return nil, fmt.Errorf("task functions must return void: %q", line)
	}
	decl := &TaskDecl{Name: head[1]}
	argsSrc := strings.TrimSpace(line[open+1 : close])
	if argsSrc == "" || argsSrc == "void" {
		return decl, nil
	}
	for _, arg := range strings.Split(argsSrc, ",") {
		p, err := parseParam(arg)
		if err != nil {
			return nil, err
		}
		decl.Params = append(decl.Params, p)
	}
	return decl, nil
}

// parseParam parses `double *a`, `float* b`, `int N`, `double scalar`.
func parseParam(src string) (Param, error) {
	src = strings.TrimSpace(src)
	// Normalize the pointer star onto the type.
	src = strings.ReplaceAll(src, "*", " * ")
	fields := strings.Fields(src)
	if len(fields) < 2 {
		return Param{}, fmt.Errorf("malformed parameter %q", src)
	}
	name := fields[len(fields)-1]
	typ := strings.Join(fields[:len(fields)-1], "")
	switch typ {
	case "float*", "double*", "int*", "int", "float", "double":
		return Param{Name: name, Type: typ}, nil
	default:
		return Param{}, fmt.Errorf("unsupported parameter type %q", typ)
	}
}

// applyTargetClauses handles `device(...)`, `copy_deps`, on a declaration.
func applyTargetClauses(d *TaskDecl, src string) error {
	for _, cl := range splitClauses(src) {
		switch {
		case cl == "copy_deps":
			d.CopyDeps = true
		case strings.HasPrefix(cl, "device(") && strings.HasSuffix(cl, ")"):
			dev := strings.TrimSuffix(strings.TrimPrefix(cl, "device("), ")")
			switch strings.TrimSpace(dev) {
			case "cuda":
				d.Device = task.CUDA
			case "smp":
				d.Device = task.SMP
			default:
				return fmt.Errorf("unsupported device %q", dev)
			}
		default:
			return fmt.Errorf("unsupported target clause %q", cl)
		}
	}
	return nil
}

// applyTaskClauses handles input/output/inout dependence lists.
func applyTaskClauses(d *TaskDecl, src string) error {
	for _, cl := range splitClauses(src) {
		var acc Access
		var body string
		switch {
		case strings.HasPrefix(cl, "input(") && strings.HasSuffix(cl, ")"):
			acc, body = task.In, cl[len("input("):len(cl)-1]
		case strings.HasPrefix(cl, "output(") && strings.HasSuffix(cl, ")"):
			acc, body = task.Out, cl[len("output("):len(cl)-1]
		case strings.HasPrefix(cl, "inout(") && strings.HasSuffix(cl, ")"):
			acc, body = task.InOut, cl[len("inout("):len(cl)-1]
		case strings.HasPrefix(cl, "reduction(") && strings.HasSuffix(cl, ")"):
			// OpenMP-style: reduction(+: [N] acc, ...)
			inner := cl[len("reduction(") : len(cl)-1]
			colon := strings.Index(inner, ":")
			if colon < 0 {
				return fmt.Errorf("reduction clause needs an operator: %q", cl)
			}
			if op := strings.TrimSpace(inner[:colon]); op != "+" {
				return fmt.Errorf("unsupported reduction operator %q", op)
			}
			acc, body = task.Red, inner[colon+1:]
		default:
			return fmt.Errorf("unsupported task clause %q", cl)
		}
		for _, item := range strings.Split(body, ",") {
			dep, err := parseDepItem(item, acc)
			if err != nil {
				return err
			}
			d.Deps = append(d.Deps, dep)
		}
	}
	return nil
}

// parseDepItem parses `[N] a` or `[BS*BS] c` or plain `x`.
func parseDepItem(src string, acc Access) (Dep, error) {
	src = strings.TrimSpace(src)
	dep := Dep{Access: acc, Len: intLit(1)}
	if strings.HasPrefix(src, "[") {
		end := strings.Index(src, "]")
		if end < 0 {
			return Dep{}, fmt.Errorf("unterminated array section in %q", src)
		}
		expr, err := parseExpr(src[1:end])
		if err != nil {
			return Dep{}, err
		}
		dep.Len = expr
		src = strings.TrimSpace(src[end+1:])
	}
	if src == "" || strings.ContainsAny(src, " []()") {
		return Dep{}, fmt.Errorf("malformed dependence item %q", src)
	}
	dep.Param = src
	return dep, nil
}

// parseExpr parses products of identifiers and integer literals.
func parseExpr(src string) (Expr, error) {
	parts := strings.Split(src, "*")
	var out Expr
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty factor in expression %q", src)
		}
		var e Expr
		if v, err := strconv.ParseInt(part, 10, 64); err == nil {
			e = intLit(v)
		} else if isIdent(part) {
			e = ref(part)
		} else {
			return nil, fmt.Errorf("unsupported factor %q in expression %q", part, src)
		}
		if out == nil {
			out = e
		} else {
			out = mul{a: out, b: e}
		}
	}
	return out, nil
}

func isIdent(s string) bool {
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return len(s) > 0
}

// splitClauses splits "device(cuda) copy_deps" or
// "input([N] a, [N] b) output([N] c)" into top-level clause strings.
func splitClauses(src string) []string {
	var out []string
	depth := 0
	start := 0
	for i, r := range src {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ' ', '\t':
			if depth == 0 {
				if tok := strings.TrimSpace(src[start:i]); tok != "" {
					out = append(out, tok)
				}
				start = i + 1
			}
		}
	}
	if tok := strings.TrimSpace(src[start:]); tok != "" {
		out = append(out, tok)
	}
	return out
}
