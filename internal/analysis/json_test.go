package analysis_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"github.com/bsc-repro/ompss/internal/analysis"
)

// TestEncodeJSON pins the machine-readable schema: field names, the
// relFile hook, empty-kind omission, and that suppressed findings are
// emitted rather than filtered — the JSON artifact is the audit trail
// for the suppression escape hatch.
func TestEncodeJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "/abs/root/pkg/a.go", Line: 10, Column: 2},
			Analyzer: "detwallclock",
			Message:  "time.Now reads the wall clock in simulator code",
			Kind:     "wallclock-ok",
		},
		{
			Pos:        token.Position{Filename: "/abs/root/pkg/b.go", Line: 3, Column: 1},
			Analyzer:   "simblocking",
			Message:    "nested rx.Acquire while resource tx is held",
			Kind:       "simblock-ok",
			Suppressed: true,
		},
	}
	var buf bytes.Buffer
	rel := func(s string) string { return s[len("/abs/root/"):] }
	if err := analysis.EncodeJSON(&buf, diags, rel); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("encoded %d records, want 2", len(got))
	}
	if got[0]["file"] != "pkg/a.go" {
		t.Errorf("relFile hook not applied: file = %v", got[0]["file"])
	}
	if got[0]["suppressed"] != false || got[1]["suppressed"] != true {
		t.Errorf("suppressed flags wrong: %v / %v", got[0]["suppressed"], got[1]["suppressed"])
	}
	if got[1]["analyzer"] != "simblocking" || got[1]["line"] != float64(3) {
		t.Errorf("record fields wrong: %v", got[1])
	}

	// An empty Kind must be omitted, not emitted as "".
	var empty bytes.Buffer
	if err := analysis.EncodeJSON(&empty, []analysis.Diagnostic{{Analyzer: "x", Message: "m"}}, nil); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	if bytes.Contains(empty.Bytes(), []byte(`"kind"`)) {
		t.Errorf("empty kind was emitted: %s", empty.String())
	}
}
