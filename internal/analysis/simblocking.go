package analysis

import (
	"go/ast"
	"go/types"
)

// SimBlocking flags the deadlock shapes the virtual-clock engine cannot
// detect at runtime: calls into sim blocking primitives (Sleep, Yield,
// Wait, WaitFor, Get, Acquire, Use, Run, WaitAll, Park) and into the
// process forms built on them (netsim Send, gasnet AMShort/AMMedium/AMLong/
// AMProbe) made
//
//   - while an acquired sim.Resource is still held, for nested acquires
//     and unbounded waits — two processes acquiring two resources in
//     opposite orders deadlock at a frozen virtual time (bounded
//     Sleep/Yield with a resource held is the occupancy model itself
//     and is allowed);
//   - anywhere inside Engine.After / Event.OnTrigger / Event.WaitForFunc /
//     Resource.AcquireFunc / Queue.GetFunc / netsim SendFunc callbacks and
//     gasnet non-blocking handlers, which run inline on the engine loop
//     and are documented no-block contexts (the Func forms are what they
//     send with).
//
// The analysis is per-function and source-ordered; function literals
// are independent contexts (a spawned process does not inherit its
// parent's resources).
var SimBlocking = &Analyzer{
	Name: "simblocking",
	Doc:  "forbid sim blocking calls under held resources and inside inline engine callbacks",
	Run:  runSimBlocking,
}

// simBlockingFuncs are the functions and methods that park the calling
// process on the engine, by declaring package: the sim primitives, and the
// process forms of a send in the layers above.
var simBlockingFuncs = map[string]map[string]bool{
	"internal/sim": {
		"Sleep": true, "Yield": true, "Wait": true, "WaitFor": true, "Park": true,
		"Get": true, "Acquire": true, "Use": true, "Run": true, "WaitAll": true,
	},
	"internal/netsim": {"Send": true},
	"internal/gasnet": {"AMShort": true, "AMMedium": true, "AMLong": true, "AMProbe": true},
}

// blocks reports whether fn is one of simBlockingFuncs.
func blocks(fn *types.Func) bool {
	for pkg, names := range simBlockingFuncs {
		if names[fn.Name()] && pathHasSuffixPkg(fn.Pkg().Path(), pkg) {
			return true
		}
	}
	return false
}

// simUnboundedFuncs is the subset whose wait is not bounded by a
// duration argument — the ones that deadlock (rather than stall) when
// the matching Trigger/Put/Release can never happen.
var simUnboundedFuncs = map[string]bool{
	"Wait": true, "Get": true, "Acquire": true, "Use": true,
	"Run": true, "WaitAll": true, "Park": true,
}

// simInlineCallbacks are the functions whose function-literal arguments
// run inline on the engine loop and must not block, by declaring package.
var simInlineCallbacks = map[string]string{
	"After": "internal/sim", "OnTrigger": "internal/sim", "AcquireFunc": "internal/sim",
	"GetFunc": "internal/sim", "WaitForFunc": "internal/sim",
	"SendFunc": "internal/netsim", "RegisterNonBlocking": "internal/gasnet",
}

func runSimBlocking(pass *Pass) error {
	path := pass.Pkg.Path()
	if !InScope(path) || isSimPkg(path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fd.Body != nil {
				scanBlockingContext(pass, fd.Body, false)
			}
			return false
		})
	}
	return nil
}

// scanBlockingContext walks one function-like body in source order,
// tracking held resources by the source text of their receiver
// expression. noblock marks inline engine callback bodies where any
// blocking call is an error.
func scanBlockingContext(pass *Pass, body *ast.BlockStmt, noblock bool) {
	var heldRes []string
	// litMode defers nested function literals to their own scan, in the
	// mode their enclosing call dictates.
	litMode := make(map[*ast.FuncLit]bool)
	deferred := make(map[*ast.CallExpr]bool)

	remove := func(held []string, expr string) []string {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == expr {
				return append(held[:i], held[i+1:]...)
			}
		}
		return held
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
			return true
		case *ast.FuncLit:
			scanBlockingContext(pass, n.Body, litMode[n])
			return false
		case *ast.CallExpr:
			fn, recv, ok := callee(pass, n)
			if !ok {
				return true
			}
			name := fn.Name()
			if pkg, inline := simInlineCallbacks[name]; inline && pathHasSuffixPkg(fn.Pkg().Path(), pkg) {
				for _, arg := range n.Args {
					if lit, isLit := arg.(*ast.FuncLit); isLit {
						litMode[lit] = true
					}
				}
				return true
			}
			if name == "Release" && isSimPkg(fn.Pkg().Path()) && isResourceMethod(fn) {
				if !deferred[n] {
					heldRes = remove(heldRes, recv)
				}
				return true
			}
			if !blocks(fn) {
				return true
			}
			name = fn.Pkg().Name() + " " + name
			// Spawning a process is not blocking; only the primitives
			// above park the caller. Report the most specific violation.
			switch {
			case noblock:
				report(pass, n, "%s inside an inline engine callback: After, OnTrigger, AcquireFunc, GetFunc, "+
					"SendFunc and RegisterNonBlocking bodies run on the engine loop and must not block", name)
			case len(heldRes) > 0 && fn.Name() == "Acquire" && isResourceMethod(fn):
				report(pass, n, "nested %s.Acquire while resource %s is held: opposite "+
					"acquisition orders deadlock at a frozen virtual time", recv, heldRes[len(heldRes)-1])
			case len(heldRes) > 0 && isSimPkg(fn.Pkg().Path()) && simUnboundedFuncs[fn.Name()]:
				report(pass, n, "unbounded %s while resource %s is held: the waiter "+
					"keeps the resource occupied forever if the wake-up never comes", name, heldRes[len(heldRes)-1])
			}
			if fn.Name() == "Acquire" && isResourceMethod(fn) {
				heldRes = append(heldRes, recv)
			}
			return true
		}
		return true
	})
}

func report(pass *Pass, n *ast.CallExpr, format string, args ...interface{}) {
	pass.ReportSuppressible("simblock-ok", n.Pos(), format+" (or annotate //ompss:simblock-ok <reason>)", args...)
}

// callee resolves a call to a declared function or method of some package,
// returning it and the receiver's source text ("" for package-level
// functions).
func callee(pass *Pass, call *ast.CallExpr) (fn *types.Func, recv string, ok bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
		recv = types.ExprString(fun.X)
	case *ast.Ident:
		id = fun
	default:
		return nil, "", false
	}
	fn, isFunc := pass.TypesInfo.Uses[id].(*types.Func)
	if !isFunc || fn.Pkg() == nil {
		return nil, "", false
	}
	return fn, recv, true
}

// isResourceMethod reports whether fn is a method of sim.Resource.
func isResourceMethod(fn *types.Func) bool {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj().Name() == "Resource"
}
