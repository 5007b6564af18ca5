package serve

import "container/list"

// Result is the cached artifact of one experiment execution: the
// deterministic byte encodings internal/bench produced, keyed by the
// request's content hash. Cached and freshly computed results are
// byte-identical, so hit-vs-miss is unobservable in the response body.
type Result struct {
	Hash       string
	Experiment string
	// Rows is the row count (the rows themselves live in CSV).
	Rows int
	// CSV is the bench.EncodeCSV encoding of the rows.
	CSV []byte
	// MetricsText is the bench.MetricsText snapshot of the rows.
	MetricsText []byte
	// TraceJSON is the designated grid point's Perfetto trace, when the
	// request asked for one; nil otherwise.
	TraceJSON []byte
}

// sizeBytes is the cache accounting charge of a result: payload bytes
// plus a flat overhead for the struct, keys and list bookkeeping.
func (r *Result) sizeBytes() int64 {
	const overhead = 256
	return int64(len(r.CSV)+len(r.MetricsText)+len(r.TraceJSON)) + overhead
}

// cache is the LRU, total-size-bounded result store. It has no lock of
// its own: it is part of the table and is read and written under the
// table's mutex. Hit/miss/eviction accounting lives in the server's stats,
// fed by the return values here.
type cache struct {
	maxBytes int64
	bytes    int64
	lru      *list.List               // front = most recently used; values are *Result
	entries  map[string]*list.Element // hash -> element
}

func newCache(maxBytes int64) *cache {
	return &cache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached result for hash and refreshes its recency.
func (c *cache) get(hash string) (*Result, bool) {
	el, ok := c.entries[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Result), true
}

// put stores res and evicts least-recently-used entries until the size
// bound holds again, returning how many entries were evicted. A result
// larger than the whole cache is not stored (evicting everything for an
// entry that would immediately be evicted next is pure churn). Storing an
// already-present hash refreshes recency and replaces the value.
func (c *cache) put(res *Result) (evicted int) {
	sz := res.sizeBytes()
	if sz > c.maxBytes {
		return 0
	}
	if el, ok := c.entries[res.Hash]; ok {
		c.bytes += sz - el.Value.(*Result).sizeBytes()
		el.Value = res
		c.lru.MoveToFront(el)
	} else {
		c.entries[res.Hash] = c.lru.PushFront(res)
		c.bytes += sz
	}
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*Result)
		c.lru.Remove(back)
		delete(c.entries, old.Hash)
		c.bytes -= old.sizeBytes()
		evicted++
	}
	return evicted
}

// stats returns the entry count and resident bytes.
func (c *cache) stats() (entries int, bytes int64) {
	return len(c.entries), c.bytes
}
