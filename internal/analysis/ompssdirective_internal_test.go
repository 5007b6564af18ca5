package analysis

import "testing"

// TestStaleKinds exercises the drift detector directly: a kinds map
// entry pointing at an analyzer that is not registered must surface as
// stale, and entries backed by registered analyzers must not.
func TestStaleKinds(t *testing.T) {
	kinds := map[string]string{
		"tracepair-ok": "tracepair",
		"ghost-ok":     "ghost-analyzer",
	}
	stale := staleKinds(kinds, Analyzers())
	if len(stale) != 1 || stale[0] != "ghost-ok" {
		t.Fatalf("staleKinds = %v, want [ghost-ok]", stale)
	}
}

// TestKnownKindsRegistered pins the real directive vocabulary to the
// real suite: every kind in KnownKinds must map to a registered
// analyzer, or ompssdirective would flag the repo's own suppressions
// as dead.
func TestKnownKindsRegistered(t *testing.T) {
	if stale := staleKinds(KnownKinds, Analyzers()); len(stale) != 0 {
		t.Fatalf("KnownKinds has stale entries %v: the directive vocabulary drifted from the registered suite", stale)
	}
}
