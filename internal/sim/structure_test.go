package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// secondThread lists the only directories under internal/ that may import
// sync or sync/atomic, start a goroutine or name a channel type, each with
// the reason it is not held to the rule.
var secondThread = map[string]string{
	"serve":    "net/http runs each request on its own goroutine beside a worker pool; everything they share is one table under one mutex (checked below)",
	"bench":    "runGrid fans independent grid points out to a worker pool, one engine per point, nothing shared but the index channel and the results slice",
	"analysis": "a build-time tool: it never runs inside an engine",
}

// The engine is one thread of control: Run's loop, and the coroutine it has
// switched to. That is what lets it, the layers that keep unlocked free
// lists on the strength of it (netsim, gasnet) and the whole runtime above
// them have no lock, and it holds only as long as nothing there starts a
// goroutine, hands work over a channel, or grows a second place that
// switches. A change that needs sync, a go statement or a channel outside
// secondThread is bringing back the hand-off between goroutines — and the
// lock analyzers this test replaced. Where there are threads, in serve,
// there is one mutex, so there is no lock order to get wrong.
func TestOneThreadOfControlByStructure(t *testing.T) {
	fset := token.NewFileSet()
	var pulls, mutexes []token.Pos
	checked := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := strings.Split(filepath.ToSlash(path), "/")[1]
		checked[pkg] = true
		_, exempt := secondThread[pkg]
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !exempt && (p == "sync" || p == "sync/atomic") {
				t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !exempt {
					t.Errorf("%s: go statement", fset.Position(n.Pos()))
				}
			case *ast.ChanType:
				if !exempt {
					t.Errorf("%s: channel type", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				switch {
				case !ok:
				case x.Name == "iter" && n.Sel.Name == "Pull":
					pulls = append(pulls, n.Pos())
				case pkg == "serve" && x.Name == "sync" && n.Sel.Name == "RWMutex":
					t.Errorf("%s: sync.RWMutex in serve", fset.Position(n.Pos()))
				case pkg == "serve" && x.Name == "sync" && n.Sel.Name == "Mutex":
					mutexes = append(mutexes, n.Pos())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"sim", "netsim", "gasnet", "core", "serve", "bench", "analysis"} {
		if !checked[pkg] {
			t.Errorf("no sources seen in internal/%s: the walk lost part of the tree", pkg)
		}
	}
	for pkg := range secondThread {
		if !checked[pkg] {
			t.Errorf("secondThread exempts internal/%s, which does not exist", pkg)
		}
	}
	if len(pulls) != 1 || !strings.HasPrefix(fset.Position(pulls[0]).Filename, filepath.Join("..", "sim")) {
		t.Errorf("iter.Pull is used at %s, want one site, in sim", positions(fset, pulls))
	}
	if len(mutexes) != 1 {
		t.Errorf("serve declares sync.Mutex at %s, want exactly one: with a second, lock order is a question again", positions(fset, mutexes))
	}
}

func positions(fset *token.FileSet, at []token.Pos) string {
	s := make([]string, len(at))
	for i, p := range at {
		s[i] = fset.Position(p).String()
	}
	return "[" + strings.Join(s, " ") + "]"
}
