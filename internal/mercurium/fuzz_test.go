package mercurium

import "testing"

// FuzzParse feeds arbitrary source to the directive parser. Malformed input
// must come back as an error, never a panic; accepted input must yield a
// consistent program whose clause length expressions print back to source
// that parses to the same expression. The seeds under testdata/fuzz run as
// plain tests.
func FuzzParse(f *testing.F) {
	f.Add(figure1)
	f.Add(figure2)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parse(src)
		if err != nil {
			if prog != nil {
				t.Fatalf("parse returned a program with error %v", err)
			}
			return
		}
		if len(prog.Order) == 0 || len(prog.Order) != len(prog.Tasks) {
			t.Fatalf("%d tasks in order, %d declared", len(prog.Order), len(prog.Tasks))
		}
		for _, name := range prog.Order {
			decl := prog.Tasks[name]
			if decl == nil || decl.Name != name {
				t.Fatalf("order names %q, declaration %+v", name, decl)
			}
			for _, d := range decl.Deps {
				e, err := parseExpr(d.Len.String())
				if err != nil || e.String() != d.Len.String() {
					t.Fatalf("%s: length %q reparses to %v, %v", name, d.Len, e, err)
				}
			}
		}
	})
}
