package serve

import (
	"fmt"
	"io"
	"sync/atomic"
)

// stats are the server's own counters, atomics because the HTTP edge is
// concurrent.
type stats struct {
	requests       atomic.Int64 // serve_requests
	cacheHits      atomic.Int64 // serve_cache_hit
	cacheMisses    atomic.Int64 // serve_cache_miss
	cacheEvicts    atomic.Int64 // serve_cache_evict
	coalesced      atomic.Int64 // serve_dedup_coalesced
	rejectOverload atomic.Int64 // serve_reject_overload
	badRequests    atomic.Int64 // serve_bad_requests
	execErrors     atomic.Int64 // serve_exec_errors
	execOK         atomic.Int64 // serve_exec_completed
}

// writeMetricsText renders one stats snapshot as /metricsz's lines: the
// counters, then the gauges, each sorted by id. A gauge carries its value
// and its high-water mark, which only the queue depth keeps apart (the
// table raises QueueMax under the lock it enqueues under).
func writeMetricsText(w io.Writer, st cacheStats) {
	fmt.Fprintf(w, `counter serve_bad_requests value=%d
counter serve_cache_evict value=%d
counter serve_cache_hit value=%d
counter serve_cache_miss value=%d
counter serve_dedup_coalesced value=%d
counter serve_exec_completed value=%d
counter serve_exec_errors value=%d
counter serve_reject_overload value=%d
counter serve_requests value=%d
gauge serve_cache_bytes value=%[10]d max=%[10]d
gauge serve_cache_entries value=%[11]d max=%[11]d
gauge serve_jobs value=%[12]d max=%[12]d
gauge serve_queue_depth value=%[13]d max=%[14]d
`, st.BadRequests, st.Evictions, st.Hits, st.Misses, st.Coalesced, st.ExecCompleted, st.ExecErrors,
		st.RejectedOverload, st.Requests, st.Bytes, st.Entries, st.Jobs, st.QueueDepth, st.QueueMax)
}
