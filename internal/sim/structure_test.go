package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The engine is one thread of control: Run's loop, and the coroutine it has
// switched to. That is what lets it have no lock, and it holds only as long
// as nothing here starts a goroutine, hands work over a channel, or grows a
// second place that switches. A change that needs sync, a go statement or a
// channel in this package is bringing back the hand-off between goroutines.
// The same goes for the layers that keep unlocked free lists of per-message
// records on the strength of it, netsim and gasnet.
func TestOneThreadOfControlByStructure(t *testing.T) {
	fset := token.NewFileSet()
	pulls := 0
	for _, dir := range []string{".", "../netsim", "../gasnet"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		sources := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			sources++
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", fset.Position(n.Pos()))
				case *ast.ChanType:
					t.Errorf("%s: channel type", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "iter" && n.Sel.Name == "Pull" {
						pulls++
					}
				}
				return true
			})
		}
		if sources == 0 {
			t.Fatalf("no sources in %s", dir)
		}
	}
	if pulls != 1 {
		t.Errorf("iter.Pull is used at %d sites, want 1 (in sim)", pulls)
	}
}
