//go:build !race

// The race detector's instrumentation adds allocations of its own, so the
// pin holds only in a normal build.

package serve

import "testing"

// warmHitAllocs pins the allocations of one warm hit through the route
// table, request and recorder included (9 of the 12 are theirs).
const warmHitAllocs = 12

// TestWarmHitAllocs: a warm hit is one lookup and one write of stored
// bytes. Parsing, hashing or encoding per hit shows up here first.
func TestWarmHitAllocs(t *testing.T) {
	hit := warmHit(t)
	if rec := hit(); rec.Header().Get("X-Ompss-Cache") != "hit" {
		t.Fatalf("X-Ompss-Cache %q, want hit", rec.Header().Get("X-Ompss-Cache"))
	}
	if n := testing.AllocsPerRun(200, func() { hit() }); n > warmHitAllocs {
		t.Fatalf("a warm hit allocates %.0f times, want <= %d", n, warmHitAllocs)
	}
}
