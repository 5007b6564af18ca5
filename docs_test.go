package ompss

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// docFiles are the documents whose citations of the tree are checked.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// citedPath is a Go file under internal/ or cmd/, not part of a longer
	// path such as benchmark/cmd/x.go.
	citedPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd)/[\w./-]*\.go)\b`)
	// citedField is Config.<Name>, bare or qualified by ompss or core; a
	// Config of another package (serve.Config) is not matched.
	citedField = regexp.MustCompile(`(?:^|[^\w.])(?:(?:ompss|core)\.)?Config\.([A-Za-z_]\w*)`)
)

// TestDocsCiteTheTree: every internal/ or cmd/ Go file the documents
// cite exists, and every Config.<Name> they cite is a field of Config.
// It reads only the documents and the tree.
func TestDocsCiteTheTree(t *testing.T) {
	cfg := reflect.TypeOf(Config{})
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedPath.FindAllSubmatch(text, -1) {
			if _, err := os.Stat(string(m[1])); err != nil {
				t.Errorf("%s cites %s: %v", doc, m[1], err)
			}
		}
		for _, m := range citedField.FindAllSubmatch(text, -1) {
			if _, ok := cfg.FieldByName(string(m[1])); !ok {
				t.Errorf("%s cites Config.%s, which is not a field of Config", doc, m[1])
			}
		}
	}
}
