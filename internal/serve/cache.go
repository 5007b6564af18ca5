package serve

import "container/list"

// result is the cached artifact of one experiment execution: the reply
// bytes every POST of its request is answered with, encoded once when the
// job finishes and keyed by the request's content hash. A hit writes Reply
// as stored, so hit-vs-miss is unobservable in the response body.
type result struct {
	Hash string
	// Reply is the response body: the resultPayload JSON and a newline.
	Reply []byte
	// TraceJSON is the designated grid point's Perfetto trace, when the
	// request asked for one; nil otherwise.
	TraceJSON []byte
	// body is the raw request body that computed the result, the cache's
	// second index: a byte-identical repeat is served without parsing.
	body string
}

// sizeBytes is the cache accounting charge of a result: payload and body
// bytes plus a flat overhead for the struct, keys and list bookkeeping.
func (r *result) sizeBytes() int64 {
	const overhead = 256
	return int64(len(r.Reply)+len(r.TraceJSON)+len(r.body)) + overhead
}

// cache is the LRU, total-size-bounded result store, indexed by content
// hash and by the raw body that computed each entry (both keys enter and
// leave with it). It has no lock of its own: it is part of the table and is
// read and written under the table's mutex. Hit/miss/eviction accounting
// lives in the server's stats, fed by the return values here.
type cache struct {
	maxBytes int64
	bytes    int64
	lru      *list.List               // front = most recently used; values are *result
	entries  map[string]*list.Element // hash -> element
	bodies   map[string]*list.Element // raw request body -> element
}

func newCache(maxBytes int64) *cache {
	return &cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		bodies:   make(map[string]*list.Element),
	}
}

// get returns the cached result for hash and refreshes its recency.
func (c *cache) get(hash string) (*result, bool) { return c.touch(c.entries[hash]) }

// getBody is get for the raw request body that computed the result.
func (c *cache) getBody(body []byte) (*result, bool) { return c.touch(c.bodies[string(body)]) }

func (c *cache) touch(el *list.Element) (*result, bool) {
	if el == nil {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*result), true
}

// put stores res and evicts least-recently-used entries until the size
// bound holds again, returning how many entries were evicted. A result
// larger than the whole cache is not stored (evicting everything for an
// entry that would immediately be evicted next is pure churn). Storing an
// already-present hash replaces the entry; the new one fits, so eviction
// stops before it.
func (c *cache) put(res *result) (evicted int) {
	sz := res.sizeBytes()
	if sz > c.maxBytes {
		return 0
	}
	if el, ok := c.entries[res.Hash]; ok {
		c.remove(el)
	}
	el := c.lru.PushFront(res)
	c.entries[res.Hash], c.bodies[res.body] = el, el
	c.bytes += sz
	for ; c.bytes > c.maxBytes; evicted++ {
		c.remove(c.lru.Back())
	}
	return evicted
}

// remove drops an entry from the LRU and from both indexes.
func (c *cache) remove(el *list.Element) {
	old := c.lru.Remove(el).(*result)
	delete(c.entries, old.Hash)
	delete(c.bodies, old.body)
	c.bytes -= old.sizeBytes()
}

// stats returns the entry count and resident bytes.
func (c *cache) stats() (entries int, bytes int64) {
	return len(c.entries), c.bytes
}
