package serve

import (
	"fmt"
	"testing"
)

// mkRes builds a result whose request body is "body-" + hash.
func mkRes(hash string, payload int) *result {
	return &result{Hash: hash, Reply: make([]byte, payload), body: "body-" + hash}
}

// TestCacheLRUEviction: the size bound evicts least-recently-used entries
// first, a get refreshes recency, and an evicted entry leaves the body
// index with its hash.
func TestCacheLRUEviction(t *testing.T) {
	// Each entry charges payload + body + 256 overhead; bound fits exactly 3.
	const charge = int64(1000 + len("body-h0") + 256)
	c := newCache(3 * charge)
	for i := 0; i < 3; i++ {
		if ev := c.put(mkRes(fmt.Sprintf("h%d", i), 1000)); ev != 0 {
			t.Fatalf("premature eviction at %d", i)
		}
	}
	// Touch h0 so h1 is now the LRU.
	if _, ok := c.get("h0"); !ok {
		t.Fatal("h0 missing")
	}
	if ev := c.put(mkRes("h3", 1000)); ev != 1 {
		t.Fatalf("evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("h1"); ok {
		t.Fatal("h1 should have been evicted (LRU)")
	}
	if _, ok := c.getBody([]byte("body-h1")); ok {
		t.Fatal("h1's body still indexes an evicted entry")
	}
	for _, h := range []string{"h0", "h2", "h3"} {
		if _, ok := c.get(h); !ok {
			t.Fatalf("%s evicted unexpectedly", h)
		}
		if res, ok := c.getBody([]byte("body-" + h)); !ok || res.Hash != h {
			t.Fatalf("%s's body does not index it", h)
		}
	}
	entries, bytes := c.stats()
	if entries != 3 || bytes != 3*charge || len(c.bodies) != 3 {
		t.Fatalf("stats = %d entries, %d bytes, %d bodies", entries, bytes, len(c.bodies))
	}
}

// TestCacheOversizeRejected: an entry bigger than the whole cache is not
// stored (it would evict everything and then be evicted itself).
func TestCacheOversizeRejected(t *testing.T) {
	c := newCache(1024)
	c.put(mkRes("small", 100))
	if ev := c.put(mkRes("huge", 10_000)); ev != 0 {
		t.Fatalf("oversize put evicted %d", ev)
	}
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversize entry stored")
	}
	if _, ok := c.getBody([]byte("body-huge")); ok {
		t.Fatal("oversize entry indexed by its body")
	}
	if _, ok := c.get("small"); !ok {
		t.Fatal("oversize put destroyed existing entries")
	}
}

// TestCacheReplaceRefreshes: re-putting a hash replaces the value and its
// body index key and adjusts accounting instead of double-counting.
func TestCacheReplaceRefreshes(t *testing.T) {
	c := newCache(1 << 20)
	c.put(mkRes("h", 1000))
	again := mkRes("h", 2000)
	again.body = "respelled"
	c.put(again)
	entries, bytes := c.stats()
	if entries != 1 || bytes != int64(2000+len("respelled")+256) {
		t.Fatalf("stats after replace = %d entries, %d bytes", entries, bytes)
	}
	res, ok := c.get("h")
	if !ok || len(res.Reply) != 2000 {
		t.Fatalf("replacement value not served")
	}
	if _, ok := c.getBody([]byte("body-h")); ok || len(c.bodies) != 1 {
		t.Fatalf("the replaced entry's body still indexes it (%d bodies)", len(c.bodies))
	}
	if res, ok := c.getBody([]byte("respelled")); !ok || len(res.Reply) != 2000 {
		t.Fatalf("replacement not indexed by its body")
	}
}
