package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// A Directive is one parsed `//ompss:<kind> <reason>` suppression
// comment.
type Directive struct {
	Kind   string // e.g. "wallclock-ok"
	Reason string // free text after the kind; "" when missing
	Pos    token.Pos
}

// directivePrefix introduces every suppression comment. The syntax
// follows Go tool directives (`//go:`, `//lint:`): no space after `//`,
// a kind, then a mandatory human-readable reason.
const directivePrefix = "//ompss:"

// KnownKinds are the directive kinds the suite accepts, mapping each to
// the analyzer it silences. The ompssdirective analyzer cross-checks
// every entry against the registered suite, so a kind whose analyzer is
// renamed or removed rots visibly instead of silently accepting stale
// suppressions.
var KnownKinds = map[string]string{
	"wallclock-ok": "detwallclock",
	"maporder-ok":  "detmaprange",
	"simblock-ok":  "simblocking",
	"tracepair-ok": "tracepair",
	"depverify-ok": "depverify",
}

// parseDirective parses a single comment, reporting ok=false for
// comments that are not //ompss: directives at all.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return Directive{}, false
	}
	kind, reason, _ := strings.Cut(text, " ")
	return Directive{
		Kind:   strings.TrimSpace(kind),
		Reason: strings.TrimSpace(reason),
		Pos:    c.Pos(),
	}, true
}

// fileDirectives indexes every //ompss: directive in f by the line the
// comment starts on.
func fileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	byLine := make(map[int][]Directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			byLine[line] = append(byLine[line], d)
		}
	}
	return byLine
}
