package sim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleRoot is the root of the module, seen from this package.
const moduleRoot = "../.."

// srcFset positions everything the tests that read the tree parse or import.
var srcFset = token.NewFileSet()

// parseModule parses, once, every non-test Go file of the module with its
// comments, by directory relative to the root ("internal/sim", "." for the
// root). It walks as the go command does: testdata, vendor, hidden and
// underscore directories and nested modules are not part of it, and nor is
// a file whose build constraints exclude the GOOS and GOARCH it runs on.
var parseModule = sync.OnceValues(func() (map[string][]*ast.File, error) {
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == moduleRoot {
				return nil
			}
			if _, nested := os.Stat(filepath.Join(path, "go.mod")); nested == nil || name == "testdata" ||
				name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(srcFset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(moduleRoot, filepath.Dir(path)) // the walk stays under moduleRoot
		dir = filepath.ToSlash(dir)
		files[dir] = append(files[dir], f)
		return nil
	})
	return files, err
})

// checkModule type-checks, once, every directory parseModule found against
// the module's export data, by directory.
var checkModule = sync.OnceValues(func() (map[string]*types.Info, error) {
	tree, err := parseModule()
	if err != nil {
		return nil, err
	}
	imp, err := gcImporter()
	if err != nil {
		return nil, err
	}
	checked := map[string]*types.Info{}
	for dir, files := range tree {
		path := modPath
		if dir != "." {
			path += "/" + dir
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, srcFset, files, info); err != nil {
			return nil, fmt.Errorf("%s: %v", dir, err)
		}
		checked[dir] = info
	}
	return checked, nil
})

// secondThread lists the only directories under internal/ that may import
// sync or sync/atomic, start a goroutine or name a channel type, each with
// the reason it is not held to the rule.
var secondThread = map[string]string{
	"serve":    "net/http runs each request on its own goroutine beside a worker pool; everything they share is one table under one mutex (checked below)",
	"bench":    "runGrid fans independent grid points out to a worker pool, one engine per point, nothing shared but the index channel and the results slice; heat's serial reference runs on a goroutine beside its point's run",
	"memspace": "a validated run's Plane runs the byte work the engine posts to worker goroutines, in posting order per store; the engine never touches a byte, and the plane's state is one mutex's (checked below)",
}

// oneMutex lists the secondThread packages whose shared state sits under
// exactly one sync.Mutex and no RWMutex, so that there is no lock order to
// get wrong.
var oneMutex = []string{"serve", "memspace"}

// The engine is one thread of control: Run's loop, and the coroutine it has
// switched to. That is what lets it, the layers that keep unlocked free
// lists on the strength of it (netsim, gasnet) and the whole runtime above
// them have no lock, and it holds only as long as nothing there starts a
// goroutine, hands work over a channel, or grows a second place that
// switches. A change that needs sync, a go statement or a channel outside
// secondThread is bringing back the hand-off between goroutines — and the
// lock analyzers this test replaced. Where there are threads, in serve and
// in memspace's plane, there is one mutex, so there is no lock order to
// get wrong.
func TestOneThreadOfControlByStructure(t *testing.T) {
	tree, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	var pulls []token.Pos
	mutexes := map[string][]token.Pos{}
	checked := map[string]bool{}
	for dir, files := range tree {
		rest, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, "/")
		checked[pkg] = true
		_, exempt := secondThread[pkg]
		for _, f := range files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); !exempt && (p == "sync" || p == "sync/atomic") {
					t.Errorf("%s: imports %s", srcFset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if !exempt {
						t.Errorf("%s: go statement", srcFset.Position(n.Pos()))
					}
				case *ast.ChanType:
					if !exempt {
						t.Errorf("%s: channel type", srcFset.Position(n.Pos()))
					}
				case *ast.SelectorExpr:
					x, ok := n.X.(*ast.Ident)
					switch {
					case !ok:
					case x.Name == "iter" && n.Sel.Name == "Pull":
						pulls = append(pulls, n.Pos())
					case x.Name == "sync" && n.Sel.Name == "RWMutex" && slices.Contains(oneMutex, pkg):
						t.Errorf("%s: sync.RWMutex in %s", srcFset.Position(n.Pos()), pkg)
					case x.Name == "sync" && n.Sel.Name == "Mutex":
						mutexes[pkg] = append(mutexes[pkg], n.Pos())
					}
				}
				return true
			})
		}
	}
	for _, pkg := range []string{"sim", "netsim", "gasnet", "core", "serve", "bench", "memspace"} {
		if !checked[pkg] {
			t.Errorf("no sources seen in internal/%s: the walk lost part of the tree", pkg)
		}
	}
	for pkg := range secondThread {
		if !checked[pkg] {
			t.Errorf("secondThread exempts internal/%s, which does not exist", pkg)
		}
	}
	if len(pulls) != 1 || !strings.HasPrefix(srcFset.Position(pulls[0]).Filename, filepath.Join(moduleRoot, "internal", "sim")) {
		t.Errorf("iter.Pull is used at %s, want one site, in sim", positions(pulls))
	}
	for _, pkg := range oneMutex {
		if len(mutexes[pkg]) != 1 {
			t.Errorf("%s declares sync.Mutex at %s, want exactly one: with a second, lock order is a question again", pkg, positions(mutexes[pkg]))
		}
	}
}

// exportsKept are the exported names under internal/ ("pkg.Name" or
// "pkg.Type.Method") that the rule of TestInternalExportsHaveUsers does not
// see used, each with what it is kept for.
var exportsKept = map[string]string{
	"sim.Engine.Spawned": "a host-work counter: TestProcessesPerTask and BenchmarkRemoteTask pin spawns per task",
	"sim.Engine.Resumed": "a host-work counter: TestProcessesPerTask and BenchmarkRemoteTask pin resumes per task",
	"sim.Engine.Popped":  "a host-work counter: TestProcessesPerTask and BenchmarkRemoteTask pin events per task",
	"sim.Queue.Len":      "the tests of netsim read an inbox's depth through it",

	"sim.DeadlockError":         "one of Run's two error types, which a caller tells apart with errors.As",
	"sim.ProcPanicError.Unwrap": "errors.As reaches a typed panic through Run's error",

	"hw.ClusterNode": "the tests of kernels build the paper's cluster node from it",
	"hw.GTX480":      "the tests of kernels, cuda and apps build their GPU from it",
	"hw.TeslaS2050":  "the tests of kernels compare its roofline with the GTX480's",

	"trace.Recorder.Spans": "the tests of core, bench and the root package read a run's timeline through it",
	"trace.Recorder.Edges": "the tests of core and bench read a run's dependency arcs through it",

	"apps.MatmulCUDA": "Table I's CUDA baseline: its lines are counted, and its checksum is checked against serial",
	"apps.NBodyCUDA":  "Table I's CUDA baseline: its lines are counted, and its checksum is checked against serial",
	"apps.PerlinCUDA": "Table I's CUDA baseline: its lines are counted, and its checksum is checked against serial",
	"apps.StreamCUDA": "Table I's CUDA baseline: its lines are counted, and its checksum is checked against serial",
}

// No exported name under internal/ is there for tests alone, nor for its
// own package alone: each package-level name and each exported method of a
// named type has a user in the module's non-test code outside the package
// that declares it (a call, a method value, a type named there or a method
// of it used), or an entry in exportsKept; a form that only tests call is
// a second way to do one thing, and goes, and one that only its package
// calls is unexported. A method that implements a method of an interface
// the module declares or names (task.Work, sched.Scheduler, netsim.Hook,
// ...), or of error or fmt.Stringer, is used through that interface. A
// named type that the signature of a used form, or a field of a used type,
// mentions is used: a caller holds its values without naming it. Struct
// fields are data a caller reads off a value it was handed, not forms, and
// are not held to it. The uses are found by type-checking the module's
// packages, so a method is told apart from another type's method of the
// same name.
func TestInternalExportsHaveUsers(t *testing.T) {
	tree, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := gcImporter()
	if err != nil {
		t.Fatal(err)
	}
	// The export data of each internal package, by import path; methods
	// are looked up here, so every type compared is the imported one.
	pkgs := map[string]*types.Package{}
	for dir := range tree {
		if strings.HasPrefix(dir, "internal/") {
			if pkgs[modPath+"/"+dir], err = imp.Import(modPath + "/" + dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	key := func(pkg *types.Package, name string) string { return filepath.Base(pkg.Path()) + "." + name }
	type method struct {
		obj  types.Object
		recv *types.Named
		name string
	}
	exported := map[string]method{}
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				exported[key(pkg, name)] = method{obj: obj}
			}
			if _, ok := obj.(*types.TypeName); !ok {
				continue
			}
			if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						exported[key(pkg, name+"."+m.Name())] = method{m, named, m.Name()}
					}
				}
			}
		}
	}
	// fmt.Stringer is implemented far more often than it is named.
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := map[*types.TypeName]bool{
		types.Universe.Lookup("error").(*types.TypeName):    true,
		fmtPkg.Scope().Lookup("Stringer").(*types.TypeName): true,
	}
	// addIface records a named interface type, as the importer has it.
	addIface := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || obj.Pkg() == nil || !types.IsInterface(tn.Type()) || obj.Parent() != obj.Pkg().Scope() {
			return
		}
		if pkg, err := imp.Import(obj.Pkg().Path()); err == nil { // a main package has no export data
			if tn, ok := pkg.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
				ifaces[tn] = true
			}
		}
	}
	used := map[string]bool{}
	use := func(dir string, pkg *types.Package, name string) {
		if pkg != nil && pkgs[pkg.Path()] != nil && pkg.Path() != modPath+"/"+dir {
			used[key(pkg, name)] = true
		}
	}
	checked, err := checkModule()
	if err != nil {
		t.Fatal(err)
	}
	for dir, info := range checked {
		for _, obj := range info.Defs {
			if obj != nil {
				addIface(obj)
			}
		}
		for _, obj := range info.Uses {
			addIface(obj)
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				use(dir, obj.Pkg(), obj.Name())
			}
		}
		for _, sel := range info.Selections {
			// The type selected on is used; so is a method, as a method
			// of the type that declares it (a promoted method's embedded
			// type).
			if obj := namedObj(sel.Recv()); obj != nil {
				use(dir, obj.Pkg(), obj.Name())
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				if obj := namedObj(fn.Type().(*types.Signature).Recv().Type()); obj != nil {
					use(dir, obj.Pkg(), obj.Name())
					use(dir, obj.Pkg(), obj.Name()+"."+fn.Name())
				}
			}
		}
	}
	// reach marks used the internal named types that t mentions, through
	// signatures, composite types and exported struct fields.
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if obj := t.Origin().Obj(); obj.Pkg() != nil && pkgs[obj.Pkg().Path()] != nil {
				used[key(obj.Pkg(), obj.Name())] = true
				reach(t.Underlying())
			}
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					reach(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					reach(t.Field(i).Type())
				}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(exported)) {
		if used[name] {
			reach(exported[name].obj.Type())
		}
	}
	// implements reports whether m implements a method of a recorded
	// interface.
	implements := func(m method) bool {
		for tn := range ifaces {
			iface := tn.Type().Underlying().(*types.Interface)
			if !iface.IsMethodSet() {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, m.name); obj == nil {
				continue
			}
			if types.Implements(m.recv, iface) || types.Implements(types.NewPointer(m.recv), iface) {
				return true
			}
		}
		return false
	}
	bad := map[string]string{}
	for name, why := range exportsKept {
		m, ok := exported[name]
		switch {
		case !ok:
			bad[name] = "listed in exportsKept, but not an exported name under internal/: drop the entry"
		case used[name] || m.recv != nil && implements(m):
			bad[name] = "listed in exportsKept (" + why + "), but it has a user: drop the entry"
		}
	}
	for name, m := range exported {
		if _, kept := exportsKept[name]; kept || used[name] || m.recv != nil && implements(m) {
			continue
		}
		pkg, _, _ := strings.Cut(name, ".")
		bad[name] = "exported, and nothing outside " + pkg + " but tests uses it: unexport or delete it"
	}
	for _, name := range slices.Sorted(maps.Keys(bad)) {
		t.Errorf("%s: %s", name, bad[name])
	}
}

// namedObj is the declaration of the named type t or *t is, nil for any
// other type.
func namedObj(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

func positions(at []token.Pos) string {
	s := make([]string, len(at))
	for i, p := range at {
		s[i] = srcFset.Position(p).String()
	}
	return "[" + strings.Join(s, " ") + "]"
}

// constParamsKept are the parameters the rule of TestParametersVary lets
// every caller set to one constant ("pkg.Func param" or "pkg.Type.Method
// param"), each with what it is kept for.
var constParamsKept = map[string]string{
	"mpi.Rank.Gather root": "MPI's interface, which the MPI+CUDA baselines are written against, names the root of a collective",
}

// A parameter earns its keep by carrying something. In the non-test code
// under internal/ and cmd/, (a) every named parameter of a function or
// function literal is read, and (b) a function called directly from two
// sites or more, and never used as a value, does not get the same bool,
// nil or numeric constant for one parameter at every site: that parameter
// is a constant of the function's, or an entry in constParamsKept. Call
// sites are counted over the whole module's non-test code, and a function
// used as a value (a method value, a func passed or stored, a method an
// interface of the module may dispatch to) is exempt from (b), since its
// calls are not all in sight.
func TestParametersVary(t *testing.T) {
	tree, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	checked, err := checkModule()
	if err != nil {
		t.Fatal(err)
	}
	held := func(dir string) bool { return strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") }
	// name is a function's rule key: pkg.Func or pkg.Type.Method.
	name := func(fn *types.Func) string {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if obj := namedObj(recv.Type()); obj != nil {
				return filepath.Base(obj.Pkg().Path()) + "." + obj.Name() + "." + fn.Name()
			}
		}
		return filepath.Base(fn.Pkg().Path()) + "." + fn.Name()
	}
	// Functions are keyed by FullName, which the declaring package's check
	// and an importing package's check agree on.
	type decl struct {
		fn  *types.Func
		pos token.Pos
	}
	decls := map[string]decl{}       // the functions (b) holds
	calls := map[string][][]string{} // each site's constant arguments ("" when not one)
	asValue := map[string]bool{}
	var ifaces []*types.Interface
	for dir, files := range tree {
		info := checked[dir]
		read := map[types.Object]bool{}
		for _, obj := range info.Uses {
			read[obj] = true
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
		callee := map[*ast.Ident]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var ft *ast.FuncType
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return false // implemented in assembly
					}
					ft = n.Type
					if fn, ok := info.Defs[n.Name].(*types.Func); ok && held(dir) {
						decls[fn.FullName()] = decl{fn, n.Name.Pos()}
					}
				case *ast.FuncLit:
					ft = n.Type
				case *ast.CallExpr:
					fun := ast.Unparen(n.Fun)
					if ix, ok := fun.(*ast.IndexExpr); ok {
						fun = ix.X
					} else if ix, ok := fun.(*ast.IndexListExpr); ok {
						fun = ix.X
					}
					var id *ast.Ident
					switch fun := fun.(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						if s := info.Selections[fun]; s != nil && s.Kind() != types.MethodVal {
							return true // a method expression's receiver is an argument
						}
						id = fun.Sel
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || n.Ellipsis.IsValid() {
						return true
					}
					callee[id] = true
					args := make([]string, len(n.Args))
					for i, a := range n.Args {
						switch tv := info.Types[a]; {
						case tv.IsNil():
							args[i] = "nil"
						case tv.Value != nil && tv.Value.Kind() != constant.String && tv.Value.Kind() != constant.Unknown:
							args[i] = tv.Value.ExactString()
						}
					}
					full := fn.Origin().FullName()
					calls[full] = append(calls[full], args)
				}
				if ft != nil && held(dir) {
					for _, field := range ft.Params.List {
						for _, id := range field.Names {
							if obj := info.Defs[id]; id.Name != "_" && obj != nil && !read[obj] {
								t.Errorf("%s: parameter %s is never read: name it _ or drop it", srcFset.Position(id.Pos()), id.Name)
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok && !callee[id] {
				asValue[fn.Origin().FullName()] = true
			}
		}
	}
	dispatched := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); obj == nil {
				continue
			}
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				return true
			}
		}
		return false
	}
	kept := map[string]bool{}
	for _, full := range slices.Sorted(maps.Keys(decls)) {
		d, sites := decls[full], calls[full]
		if len(sites) < 2 || asValue[full] || dispatched(d.fn) {
			continue
		}
		sig := d.fn.Type().(*types.Signature)
		for i := range sig.Params().Len() {
			if sig.Variadic() && i == sig.Params().Len()-1 {
				break
			}
			same := true
			for _, args := range sites {
				if len(args) != sig.Params().Len() || args[i] == "" || args[i] != sites[0][i] {
					same = false
					break
				}
			}
			if !same {
				continue
			}
			key := name(d.fn) + " " + sig.Params().At(i).Name()
			if _, ok := constParamsKept[key]; ok {
				kept[key] = true
				continue
			}
			t.Errorf("%s: %s: every one of %d call sites passes %s: make it a constant of the function", srcFset.Position(d.pos), key, len(sites), sites[0][i])
		}
	}
	for key, why := range constParamsKept {
		if !kept[key] {
			t.Errorf("%s: listed in constParamsKept (%s), but its callers vary it or it is gone: drop the entry", key, why)
		}
	}
}

// nodeStateOwners are the only directories that may name the node state
// of task.Task: the package that declares it and the graph that keeps it.
var nodeStateOwners = []string{"internal/task", "internal/depgraph"}

// A task is its own dependence-graph node: its Node fields (the wait
// count, the done flag and the successor list) sit in task.Task so that a
// million-task graph pays no second record per task, and they are right
// only while depgraph alone keeps them. Nothing outside nodeStateOwners
// may name a Node field or method of task.Task.
func TestNodeStateIsDepgraphsByStructure(t *testing.T) {
	tree, err := parseModule()
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]bool{}
	for _, f := range tree["internal/task"] {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && strings.HasPrefix(d.Name.Name, "Node") && recvName(d.Recv.List[0].Type) == "Task" {
					state[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Task" {
						continue
					}
					for _, field := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range field.Names {
							if strings.HasPrefix(name.Name, "Node") {
								state[name.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(state) == 0 {
		t.Fatal("task.Task has no Node fields: the walk lost internal/task, or the node state moved")
	}
	for dir, files := range tree {
		if slices.Contains(nodeStateOwners, dir) {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && state[sel.Sel.Name] {
					t.Errorf("%s: names %s, the dependence graph's node state of task.Task", srcFset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// recvName is the type name of a method receiver, T or *T.
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
