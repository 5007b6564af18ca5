package sim

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The determinism rules (DESIGN.md §9): no wall clock or unseeded
// randomness, no map-order leaks, no blocking under a held resource or
// inside an inline engine callback, every trace span closed, and every
// //ompss:<kind> <reason> suppression well-formed. Each rule is a plain
// function over one type-checked package. TestRulesOnTree holds the module
// to them; a test named after each rule (TestDetWallclock, ...) holds it
// to its verdicts on snippets compiled against the real packages.

const modPath = "github.com/bsc-repro/ompss"

// scopedPkgs are the packages, with the packages nested under them, whose
// code feeds schedules, traces, checksums and cached results. Every rule
// but ompssdirective applies only inside them.
var scopedPkgs = []string{
	"internal/sim", "internal/sched", "internal/core", "internal/coherence",
	"internal/depgraph", "internal/gasnet", "internal/netsim", "internal/gpusim",
	"internal/faults", "internal/memspace", "internal/task", "internal/metrics",
	"internal/trace",
	// The serving layer caches simulation results by content hash; a
	// wall-clock read there can leak nondeterminism into cached bytes just
	// as surely as one inside the simulator.
	"internal/serve",
}

func inScope(path string) bool {
	for _, s := range scopedPkgs {
		if path == modPath+"/"+s || strings.HasPrefix(path, modPath+"/"+s+"/") {
			return true
		}
	}
	return false
}

// A rule is one check; kind is the //ompss: directive kind that suppresses
// its findings, "" when nothing may.
type rule struct {
	name, kind string
	check      func(*pkg)
}

// rules returns the five rules. It is a function so that ompssDirective
// can read the kinds off it.
func rules() []rule {
	return []rule{
		{"detwallclock", "wallclock-ok", detWallclock},
		{"detmaprange", "maporder-ok", detMapRange},
		{"simblocking", "simblock-ok", simBlocking},
		{"tracepair", "tracepair-ok", tracePair},
		{"ompssdirective", "", ompssDirective},
	}
}

func ruleNamed(name string) rule {
	for _, r := range rules() {
		if r.name == name {
			return r
		}
	}
	panic("no rule " + name)
}

// A pkg is one package as the rules read it, and what they found there.
type pkg struct {
	path       string
	files      []*ast.File
	types      *types.Package
	info       *types.Info // nil outside the scope, where only ompssdirective runs
	directives []directive
	rule       rule // the rule running
	found      []finding
	suppressed map[string]int // findings a reasoned directive covered, by kind
}

type finding struct {
	pos        token.Position
	rule, text string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s: %s", f.pos, f.rule, f.text) }

// A directive is one //ompss:<kind> <reason> comment.
type directive struct {
	kind, reason string
	pos          token.Pos
}

// load makes the package at path out of files, type-checked against the
// module's export data when it is in the scope.
func load(path string, files []*ast.File) (*pkg, error) {
	p := &pkg{path: path, files: files, suppressed: map[string]int{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if text, ok := strings.CutPrefix(c.Text, "//ompss:"); ok {
					kind, reason, _ := strings.Cut(text, " ")
					p.directives = append(p.directives, directive{strings.TrimSpace(kind), strings.TrimSpace(reason), c.Pos()})
				}
			}
		}
	}
	if !inScope(path) {
		return p, nil
	}
	imp, err := gcImporter()
	if err != nil {
		return nil, err
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// A snippet's unused import is a soft error, and no failure.
	conf := types.Config{Importer: imp, Error: func(e error) {
		if te, ok := e.(types.Error); err == nil && !(ok && te.Soft) {
			err = e
		}
	}}
	p.types, _ = conf.Check(path, srcFset, files, p.info)
	return p, err
}

// gcImporter imports from the export data of every package the module
// builds on, its own included, located by one `go list -export -deps`.
var gcImporter = sync.OnceValues(func() (types.Importer, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = moduleRoot
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(srcFset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}), nil
})

// run applies rs to p in turn.
func (p *pkg) run(rs ...rule) {
	for _, r := range rs {
		p.rule = r
		r.check(p)
	}
}

// report records a finding of the running rule at pos, unless a directive
// of its kind with a reason sits on that line or the line above.
func (p *pkg) report(pos token.Pos, format string, args ...any) {
	at := srcFset.Position(pos)
	text := fmt.Sprintf(format, args...)
	if kind := p.rule.kind; kind != "" {
		for _, d := range p.directives {
			dp := srcFset.Position(d.pos)
			if d.kind == kind && d.reason != "" && dp.Filename == at.Filename && (dp.Line == at.Line || dp.Line == at.Line-1) {
				p.suppressed[kind]++
				return
			}
		}
		text += " (or annotate //ompss:" + kind + " <reason>)"
	}
	p.found = append(p.found, finding{at, p.rule.name, text})
}

func (p *pkg) inspect(fn func(ast.Node) bool) {
	for _, f := range p.files {
		ast.Inspect(f, fn)
	}
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// wallclockFuncs read or wait on the wall clock; time's types and constants
// stay usable. seededRand are the math/rand functions that build a seeded
// generator rather than draw from the global source.
var (
	wallclockFuncs = set("Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc")
	seededRand     = set("New", "NewSource", "NewZipf")
)

// detWallclock: simulator code takes time only from the virtual clock and
// randomness only from seeded generators. One wall-clock read makes two
// runs of an experiment diverge, and every checksum comparison with them.
func detWallclock(p *pkg) {
	if !inScope(p.path) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, _ := sel.X.(*ast.Ident)
		pn, ok := p.info.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		_, isFunc := p.info.Uses[sel.Sel].(*types.Func)
		switch name := sel.Sel.Name; pn.Imported().Path() {
		case "time":
			if wallclockFuncs[name] && isFunc {
				p.report(sel.Pos(), "time.%s reads the wall clock; simulator code must use the virtual clock (sim Now/Sleep)", name)
			}
		case "math/rand":
			if !seededRand[name] {
				p.report(sel.Pos(), "math/rand.%s draws from the unseeded global source; use a seeded *rand.Rand", name)
			}
		case "math/rand/v2":
			p.report(sel.Pos(), "math/rand/v2.%s draws from a runtime-seeded source; use a seeded *rand.Rand", name)
		case "crypto/rand":
			p.report(sel.Pos(), "crypto/rand.%s is nondeterministic by design; use a seeded *rand.Rand", name)
		}
		return true
	})
}

// detMapRange: Go randomizes map iteration order on purpose, so a map range
// whose effects reach the scheduler, the trace, checksums or the network
// reorders work between two runs. Iterate detmap.Keys, clear() for
// delete-all, or suppress where the body is provably order-independent.
func detMapRange(p *pkg) {
	if !inScope(p.path) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := p.info.Types[rs.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.report(rs.For, "range over map %s: iteration order is randomized and breaks bit-identical replay; "+
						"iterate detmap.Keys, clear() for delete-all", types.TypeString(tv.Type, types.RelativeTo(p.types)))
				}
			}
		}
		return true
	})
}

// Functions by module path and name: blockingFuncs park the calling process
// (the sim primitives, and the process forms of a send above them);
// unboundedFuncs are the sim ones whose wait no duration bounds, which
// deadlock rather than stall when the wake-up never comes; inlineCallbacks
// run their function-literal arguments inline on the engine loop — the
// guard of Signal.WaitUntil too, which is also a blocking call itself.
var (
	blockingFuncs = set("internal/sim.Sleep", "internal/sim.Yield", "internal/sim.Wait", "internal/sim.WaitUntil",
		"internal/sim.WaitFor", "internal/sim.Park", "internal/sim.Get", "internal/sim.Acquire", "internal/sim.Use",
		"internal/sim.Run", "internal/sim.WaitAll", "internal/netsim.Send", "internal/gasnet.AMShort",
		"internal/gasnet.AMMedium", "internal/gasnet.AMLong", "internal/gasnet.AMProbe")
	unboundedFuncs = set("internal/sim.Wait", "internal/sim.WaitUntil", "internal/sim.Get", "internal/sim.Acquire",
		"internal/sim.Use", "internal/sim.Run", "internal/sim.WaitAll", "internal/sim.Park")
	inlineCallbacks = set("internal/sim.After", "internal/sim.OnTrigger", "internal/sim.AcquireFunc",
		"internal/sim.GetFunc", "internal/sim.WaitForFunc", "internal/sim.WaitUntil", "internal/netsim.SendFunc",
		"internal/gasnet.RegisterNonBlocking", "internal/core.idleWait")
)

// simBlocking flags the deadlock shapes the engine cannot detect at run
// time: a nested Resource.Acquire, or an unbounded wait, while a resource
// is held (a bounded Sleep under one is the occupancy model, and allowed).
// Blocking inside an inline callback is flagged too, though Proc.Park also
// refuses it at run time. Each function body, and each function literal, is
// its own context: a spawned process holds none of its parent's resources.
func simBlocking(p *pkg) {
	if !inScope(p.path) || p.path == modPath+"/internal/sim" {
		return
	}
	p.inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if ok && fd.Body != nil {
			p.scanBlocking(fd.Body, false)
		}
		return !ok
	})
}

// scanBlocking walks one body in source order, tracking held resources by
// the source text of their receivers; noblock marks an inline callback.
func (p *pkg) scanBlocking(body *ast.BlockStmt, noblock bool) {
	var held []string
	inline := map[*ast.FuncLit]bool{}
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.FuncLit:
			p.scanBlocking(n.Body, inline[n])
			return false
		case *ast.CallExpr:
			fn, recv := p.callee(n)
			if fn == nil {
				return true
			}
			name := qualified(fn)
			if inlineCallbacks[name] {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						inline[lit] = true
					}
				}
			}
			switch {
			case fn.FullName() == resourceMethod+"Release":
				for i := len(held) - 1; i >= 0 && !deferred[n]; i-- {
					if held[i] == recv {
						held = slices.Delete(held, i, i+1)
						break
					}
				}
			case blockingFuncs[name]:
				what, acquire := fn.Pkg().Name()+" "+fn.Name(), fn.FullName() == resourceMethod+"Acquire"
				switch {
				case noblock:
					p.report(n.Pos(), "%s inside an inline engine callback: After, OnTrigger, AcquireFunc, GetFunc, "+
						"SendFunc and RegisterNonBlocking bodies, WaitUntil guards and idleWait's take and quit run on the engine loop "+
						"and must not block", what)
				case len(held) > 0 && acquire:
					p.report(n.Pos(), "nested %s.Acquire while resource %s is held: opposite "+
						"acquisition orders deadlock at a frozen virtual time", recv, held[len(held)-1])
				case len(held) > 0 && unboundedFuncs[name]:
					p.report(n.Pos(), "unbounded %s while resource %s is held: the waiter "+
						"keeps the resource occupied forever if the wake-up never comes", what, held[len(held)-1])
				}
				if acquire {
					held = append(held, recv)
				}
			}
		}
		return true
	})
}

// callee resolves a call to the function or method it calls, with the
// source text of the receiver ("" for a function); fn is nil for anything
// else.
func (p *pkg) callee(call *ast.CallExpr) (fn *types.Func, recv string) {
	id, _ := call.Fun.(*ast.Ident)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		id, recv = sel.Sel, types.ExprString(sel.X)
	}
	if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
		return fn, recv
	}
	return nil, ""
}

// qualified names fn by its package's path in the module and its own name:
// "internal/sim.Sleep".
func qualified(fn *types.Func) string {
	return strings.TrimPrefix(fn.Pkg().Path(), modPath+"/") + "." + fn.Name()
}

// resourceMethod prefixes the full names of sim.Resource's methods.
const resourceMethod = "(*" + modPath + "/internal/sim.Resource)."

// traceCloseFuncs are the trace.Open methods that record the span.
var traceCloseFuncs = set("End", "EndBytes", "EndNonEmpty", "EndTask", "EndRegion")

// tracePair: every span opened with Recorder.Begin is closed. A discarded
// handle can never be; a bound one must reach a close, and a plain close
// must not have a return between it and the Begin. A handle that escapes
// (passed on, stored, reassigned) is trusted to be closed elsewhere.
func tracePair(p *pkg) {
	if !inScope(p.path) {
		return
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				p.checkSpans(n.Body)
			}
		case *ast.FuncLit:
			p.checkSpans(n.Body)
		}
		return true
	})
}

// checkSpans checks the spans one body opens. Nested function literals
// check their own; a close inside one counts for a handle of the enclosing
// body (the closure pattern), a return inside one does not.
func (p *pkg) checkSpans(body *ast.BlockStmt) {
	type span struct {
		begin *ast.CallExpr
		obj   types.Object // the bound handle
	}
	var spans []span
	var returns []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && p.isTraceBegin(call) {
				p.report(call.Pos(), "trace span's Open handle is discarded, so the span can never be closed")
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			id, isIdent := n.Lhs[0].(*ast.Ident) // else a field or index target: the handle escapes
			if !ok || !isIdent || !p.isTraceBegin(call) {
				return true
			}
			obj := p.info.Defs[id]
			if obj == nil {
				obj = p.info.Uses[id]
			}
			if obj != nil {
				spans = append(spans, span{call, obj})
			}
		}
		return true
	})
	for _, sp := range spans {
		closes, deferredClose, escapes := p.spanUses(body, sp.obj)
		switch {
		case escapes || deferredClose:
		case len(closes) == 0:
			p.report(sp.begin.Pos(), "trace span %s is opened but never closed (call End/EndBytes/EndNonEmpty or defer one)", sp.obj.Name())
		default:
			first := slices.Min(closes)
			for _, r := range returns {
				if r > sp.begin.Pos() && r < first {
					p.report(sp.begin.Pos(), "trace span %s can leak through the return before its close; defer the close or close before returning", sp.obj.Name())
					break
				}
			}
		}
	}
}

// spanUses finds, in the whole of body, the closes of the handle obj,
// whether one is deferred, and whether the handle escapes: any other use
// but an assignment to the blank identifier.
func (p *pkg) spanUses(body *ast.BlockStmt, obj types.Object) (closes []token.Pos, deferredClose, escapes bool) {
	deferred := map[*ast.CallExpr]bool{}
	harmless := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !traceCloseFuncs[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && p.info.Uses[id] == obj {
				harmless[id] = true
				closes = append(closes, n.Pos())
				deferredClose = deferredClose || deferred[n]
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				l, lok := lhs.(*ast.Ident)
				if len(n.Lhs) == len(n.Rhs) && lok && l.Name == "_" {
					if r, ok := n.Rhs[i].(*ast.Ident); ok {
						harmless[r] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !harmless[id] && p.info.Uses[id] == obj {
			escapes = true
		}
		return true
	})
	return closes, deferredClose, escapes
}

func (p *pkg) isTraceBegin(call *ast.CallExpr) bool {
	fn, _ := p.callee(call)
	return fn != nil && qualified(fn) == "internal/trace.Begin"
}

// ompssDirective holds the escape hatch to its form, in every package: a
// directive names the kind of one of the rules, and gives a reason. One
// without a reason suppresses nothing, so no finding is silenced without
// the why written down; a kind no rule has (its rule was retired) is
// unknown, so no stale suppression lingers.
func ompssDirective(p *pkg) {
	var kinds []string
	for _, r := range rules() {
		if r.kind != "" {
			kinds = append(kinds, r.kind)
		}
	}
	for _, d := range p.directives {
		switch {
		case !slices.Contains(kinds, d.kind):
			p.report(d.pos, "unknown directive //ompss:%s (known: %s)", d.kind, strings.Join(kinds, ", "))
		case d.reason == "":
			p.report(d.pos, "//ompss:%s needs a reason: write //ompss:%s <why this is safe>; a bare directive suppresses nothing", d.kind, d.kind)
		}
	}
}

// TestRulesOnTree holds the module to the rules: no finding anywhere, and
// exactly the suppressions listed applied, so a new escape hatch shows up
// in review.
func TestRulesOnTree(t *testing.T) {
	tree, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	applied := map[string]int{}
	for _, dir := range slices.Sorted(maps.Keys(tree)) {
		path := modPath
		if dir != "." {
			path += "/" + dir
		}
		p, err := load(path, tree[dir])
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p.run(rules()...)
		for _, f := range p.found {
			t.Error(f)
		}
		for kind, n := range p.suppressed {
			applied[kind+" in "+dir] += n
		}
	}
	// server.go: the progress-event clock, which reaches no cache key and
	// no result.
	if want := map[string]int{"wallclock-ok in internal/serve": 2}; !maps.Equal(applied, want) {
		t.Errorf("applied suppressions %v, want %v", applied, want)
	}
}

// snippetPrelude opens every snippet: imports of what the cases use, with
// the real export data. An import a case leaves unused is a soft error.
const snippetPrelude = `package snippet
import (crand "crypto/rand"; "math/rand"; "time")
import ("github.com/bsc-repro/ompss/internal/detmap"; "github.com/bsc-repro/ompss/internal/gasnet")
import ("github.com/bsc-repro/ompss/internal/netsim"; "github.com/bsc-repro/ompss/internal/sim"; "github.com/bsc-repro/ompss/internal/trace")
`

// checkSnippet runs the rule named on src, after snippetPrelude, as the
// package at path.
func checkSnippet(t *testing.T, path, name, src string) []finding {
	t.Helper()
	f, err := parser.ParseFile(srcFset, path+"/snippet.go", snippetPrelude+src, parser.ParseComments)
	if err == nil {
		var p *pkg
		if p, err = load(path, []*ast.File{f}); err == nil {
			p.run(ruleNamed(name))
			return p.found
		}
	}
	t.Fatalf("%v in\n%s", err, src)
	return nil
}

// ruleCases hold each rule to its verdicts: a case with a want is flagged
// exactly once, with a message containing want; one without is clean.
var ruleCases = []struct{ rule, want, src string }{
	// Wall-clock reads and waits, global and crypto randomness, and a bare
	// directive, which suppresses nothing.
	{"detwallclock", "time.Now reads the wall clock", `func f() time.Time { return time.Now() }`},
	{"detwallclock", "time.Sleep reads the wall clock", `func f() { time.Sleep(time.Millisecond) }`},
	{"detwallclock", "time.Since reads the wall clock", `func f(t time.Time) time.Duration { return time.Since(t) }`},
	{"detwallclock", "crypto/rand.Read is nondeterministic", `func f(buf []byte) { _, _ = crand.Read(buf) }`},
	{"detwallclock", "math/rand.Intn draws from the unseeded global source", `func f() int { return rand.Intn(10) }`},
	{"detwallclock", "time.Now reads the wall clock", `func f() time.Time { return time.Now() } //ompss:wallclock-ok`},
	// The virtual clock with time's types and constants, a seeded
	// generator, and the reasoned escape hatch.
	{"detwallclock", "", `func f(e *sim.Engine, p *sim.Proc, d time.Duration) sim.Time { p.Sleep(d / time.Millisecond); return e.Now() }`},
	{"detwallclock", "", `func f(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(10) }`},
	{"detwallclock", "", "func f() time.Time {\n//ompss:wallclock-ok operator-facing log banner; never reaches sim state\nreturn time.Now() }"},

	// A map range, the delete-all loop, a bare directive; then sorted keys,
	// the reasoned escape hatch, and a slice.
	{"detmaprange", "range over map map[int]int", `func f(m map[int]int) (n int) { for _, v := range m { n += v }; return }`},
	{"detmaprange", "range over map map[string]bool", `func f(m map[string]bool) { for k := range m { delete(m, k) } }`},
	{"detmaprange", "range over map map[int]int", "func f(m map[int]int) {\n//ompss:maporder-ok\nfor range m {} }"},
	{"detmaprange", "", `func f(m map[int]int) (n int) { for _, k := range detmap.Keys(m) { n += m[k] }; return }`},
	{"detmaprange", "", "func f(m map[string]bool) (n int) {\n//ompss:maporder-ok pure count; no effect escapes the loop\nfor range m { n++ }; return }"},
	{"detmaprange", "", `func f(s []int) (n int) { for _, v := range s { n += v }; return }`},

	// Under a held resource, a nested acquire and unbounded waits (the last
	// in a spawned process); in inline callbacks, any blocking call; a
	// WaitUntil guard that blocks, and a WaitUntil under a held resource.
	{"simblocking", "nested b.Acquire while resource a is held", `func f(p *sim.Proc, a, b *sim.Resource) { a.Acquire(p); b.Acquire(p); b.Release(); a.Release() }`},
	{"simblocking", "unbounded sim Get while resource r is held", `func f(p *sim.Proc, r *sim.Resource, q *sim.Queue[int]) { r.Acquire(p); q.Get(p); r.Release() }`},
	{"simblocking", "unbounded sim Get while resource r is held", `func f(e *sim.Engine, r *sim.Resource, q *sim.Queue[*sim.Event]) {
	e.Go("drain", func(p *sim.Proc) { r.Acquire(p); ev, _ := q.Get(p); r.Release(); ev.Trigger() }) }`},
	{"simblocking", "sim Wait inside an inline engine callback", `func f(e *sim.Engine, p *sim.Proc, ev *sim.Event) { e.After(1, func() { ev.Wait(p) }) }`},
	{"simblocking", "sim Sleep inside an inline engine callback", `func f(p *sim.Proc, ev *sim.Event) { ev.OnTrigger(func() { p.Sleep(1) }) }`},
	{"simblocking", "sim Sleep inside an inline engine callback", `func f(p *sim.Proc, r *sim.Resource) { r.AcquireFunc(func() { p.Sleep(1); r.Release() }) }`},
	{"simblocking", "sim Sleep inside an inline engine callback", `func f(ep *gasnet.Endpoint, p *sim.Proc) { ep.RegisterNonBlocking("done", func(gasnet.AM) { p.Sleep(1) }) }`},
	{"simblocking", "netsim Send inside an inline engine callback", `func f(ep *gasnet.Endpoint, fab *netsim.Fabric, p *sim.Proc) {
	ep.RegisterNonBlocking("ping", func(am gasnet.AM) { fab.Send(p, netsim.Message{From: 1, To: am.From}) }) }`},
	{"simblocking", "sim Sleep inside an inline engine callback", `func f(p *sim.Proc, s *sim.Signal) {
	s.WaitUntil(p, s.Gen(), func() bool { p.Sleep(1); return true }) }`},
	{"simblocking", "unbounded sim WaitUntil while resource r is held", `func f(p *sim.Proc, r *sim.Resource, s *sim.Signal, q *sim.Queue[int]) {
	r.Acquire(p); s.WaitUntil(p, s.Gen(), func() bool { return q.Len() > 0 }); r.Release() }`},
	// The occupancy model, a spawn from a callback, a documented acquisition
	// order, occupancy as continuations, both handler forms, a reply from a
	// non-blocking handler with the event-chain send, and a WaitUntil guard
	// that only takes.
	{"simblocking", "", `func f(p *sim.Proc, r *sim.Resource) { r.Acquire(p); p.Sleep(10); r.Release() }`},
	{"simblocking", "", `func f(e *sim.Engine, ev *sim.Event) { e.After(1, func() { e.Go("drain", func(p *sim.Proc) { ev.Wait(p) }) }) }`},
	{"simblocking", "", "func f(p *sim.Proc, tx, rx *sim.Resource) { tx.Acquire(p)\n//ompss:simblock-ok TX is always acquired before RX; the wait graph is acyclic\nrx.Acquire(p); tx.Release(); rx.Release() }"},
	{"simblocking", "", `func f(e *sim.Engine, r *sim.Resource, done *sim.Event) { r.AcquireFunc(func() { e.After(10, func() { r.Release(); done.Trigger() }) }) }`},
	{"simblocking", "", `func f(ep *gasnet.Endpoint, ev *sim.Event) {
	ep.Register("fetch", func(p *sim.Proc, am gasnet.AM) { ev.Wait(p) }); ep.RegisterNonBlocking("ack", func(gasnet.AM) { ev.Trigger() }) }`},
	{"simblocking", "", `func f(ep *gasnet.Endpoint, fab *netsim.Fabric, ev *sim.Event) {
	ep.RegisterNonBlocking("ping", func(am gasnet.AM) { fab.SendFunc(netsim.Message{From: 1, To: am.From}, func() { ev.Trigger() }) }) }`},
	{"simblocking", "", `func f(p *sim.Proc, s *sim.Signal, q *sim.Queue[int]) (v int) {
	s.WaitUntil(p, s.Gen(), func() (ok bool) { v, ok = q.TryGet(); return ok }); return v }`},

	// A discarded handle, a span never closed, a span a return leaks; then
	// a deferred close, a close before any return, a close in a closure, and
	// handles passed to the helper that closes them.
	{"tracepair", "Open handle is discarded", `func f(rec *trace.Recorder) { rec.Begin(trace.TaskRun, "k", 0, 0, 0) }`},
	{"tracepair", "trace span sp is opened but never closed", `func f(rec *trace.Recorder) { sp := rec.Begin(trace.Stage, "s", 0, 0, 0); _ = sp }`},
	{"tracepair", "trace span sp can leak through the return", `func f(rec *trace.Recorder, fail bool) { sp := rec.Begin(trace.XferH2D, "h", 0, 0, 0); if fail { return }; sp.End(10) }`},
	{"tracepair", "", `func f(rec *trace.Recorder, fail bool) { sp := rec.Begin(trace.TaskRun, "k", 0, 0, 0); defer sp.End(10); if fail { return } }`},
	{"tracepair", "", `func f(rec *trace.Recorder) { sp := rec.Begin(trace.Stage, "s", 0, 0, 0); sp.EndNonEmpty(10) }`},
	{"tracepair", "", `func f(rec *trace.Recorder, run func(func())) { sp := rec.Begin(trace.XferD2H, "d", 0, 0, 0); run(func() { sp.EndBytes(10, 4096) }) }`},
	{"tracepair", "", `func f(rec *trace.Recorder) { closeLater(rec.Begin(trace.NetSend, "n", 0, -1, 0)); sp := rec.Begin(trace.NetSend, "n", 0, -1, 0); closeLater(sp) }
func closeLater(sp trace.Open) { sp.End(10) }`},

	// No reason, an unknown kind, the kinds of two retired rules; then a
	// reasoned directive of a known kind.
	{"ompssdirective", "//ompss:wallclock-ok needs a reason", "func f() {\n//ompss:wallclock-ok\n}"},
	{"ompssdirective", "unknown directive //ompss:frobnicate", "func f() {\n//ompss:frobnicate because reasons\n}"},
	{"ompssdirective", "unknown directive //ompss:lockorder-ok", "func f() {\n//ompss:lockorder-ok both paths run under the admission lock\n}"},
	{"ompssdirective", "unknown directive //ompss:depverify-ok", "func f() {\n//ompss:depverify-ok clauses come from a registered table\n}"},
	{"ompssdirective", "", "func f() {\n//ompss:maporder-ok documented: pure count\n}"},
}

// testRule runs the rule's cases, one subtest each, named by the finding
// wanted or "clean".
func testRule(t *testing.T, rule string) {
	for _, c := range ruleCases {
		if c.rule != rule {
			continue
		}
		name := c.want
		if name == "" {
			name = "clean"
		}
		t.Run(name, func(t *testing.T) {
			found := checkSnippet(t, modPath+"/internal/core/snippet", c.rule, c.src)
			if c.want == "" && len(found) > 0 || c.want != "" && (len(found) != 1 || !strings.Contains(found[0].text, c.want)) {
				t.Errorf("%s on\n%s\nfound %v, want %q", c.rule, c.src, found, c.want)
			}
		})
	}
}

func TestDetWallclock(t *testing.T) {
	testRule(t, "detwallclock")
	// Outside the scope, the same read of the wall clock is no finding.
	t.Run("out of scope", func(t *testing.T) {
		if found := checkSnippet(t, modPath+"/internal/toolx", "detwallclock", ruleCases[2].src); len(found) > 0 {
			t.Errorf("detwallclock outside the scope: %v", found)
		}
	})
}

func TestDetMapRange(t *testing.T) { testRule(t, "detmaprange") }

func TestTracePair(t *testing.T)      { testRule(t, "tracepair") }
func TestOmpssDirective(t *testing.T) { testRule(t, "ompssdirective") }

func TestSimBlocking(t *testing.T) {
	testRule(t, "simblocking")
	// The runtime's idle loops reach WaitUntil through nodeRT.idleWait, so
	// its take and quit are inline callbacks too: blocking in take is
	// flagged, a take that only pops is clean.
	const idle = `type image struct{}
func (image) idleWait(p *sim.Proc, take, quit func() bool) func() bool { return take }
`
	for _, c := range []struct{ want, take string }{
		{"sim Sleep inside an inline engine callback", `func() bool { p.Sleep(1); return true }`},
		{"", `func() bool { _, ok := q.TryGet(); return ok }`},
	} {
		src := idle + `func f(n image, p *sim.Proc, q *sim.Queue[int]) { n.idleWait(p, ` + c.take + `, func() bool { return false }) }`
		found := checkSnippet(t, modPath+"/internal/core", "simblocking", src)
		if c.want == "" && len(found) > 0 || c.want != "" && (len(found) != 1 || !strings.Contains(found[0].text, c.want)) {
			t.Errorf("simblocking on\n%s\nfound %v, want %q", src, found, c.want)
		}
	}
}
