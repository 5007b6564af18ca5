package analysis

import (
	"go/ast"
	"go/types"
)

// The interprocedural pass (depverify) works on one view of the
// module: a declaration index mapping every function and method
// object to its syntax plus the package that type-checked it, and a
// static call-graph extractor on top. Both are deliberately
// flow-insensitive and resolve only statically-dispatched calls —
// interface and func-value calls are left to each pass's conservative
// fallback.

// funcDecl is one function's syntax together with its package context
// (TypesInfo maps are per-package, so analyses of a body must use the
// owning package's info).
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// moduleIndex is the shared declaration index of one ModulePass.
type moduleIndex struct {
	pass  *ModulePass
	funcs map[*types.Func]funcDecl
}

// newModuleIndex walks every package once and indexes all function and
// method declarations by their type-checker object.
func newModuleIndex(pass *ModulePass) *moduleIndex {
	ix := &moduleIndex{pass: pass, funcs: make(map[*types.Func]funcDecl)}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					ix.funcs[fn] = funcDecl{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return ix
}

// lookup returns the declaration of fn, ok=false for functions declared
// outside the analyzed package set (standard library, interface
// methods).
func (ix *moduleIndex) lookup(fn *types.Func) (funcDecl, bool) {
	fd, ok := ix.funcs[fn]
	return fd, ok
}

// method returns the declared method name on the named type (or its
// pointer receiver), resolving through the method set of *T.
func (ix *moduleIndex) method(named *types.Named, name string) (*types.Func, bool) {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// staticCallee resolves a call expression to the function or method
// object it statically dispatches to, using the owning package's type
// info. ok=false for builtins, conversions, func-value and interface
// calls.
func staticCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Interface method calls resolve to the interface's *types.Func,
		// which has no body in the index; callers treat that as unknown.
		id = fun.Sel
	default:
		return nil, false
	}
	fn, ok := pkg.TypesInfo.Uses[id].(*types.Func)
	return fn, ok
}

// namedOf unwraps pointers and aliases down to the defined named type,
// or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}
