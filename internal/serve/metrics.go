package serve

import (
	"sync/atomic"

	"github.com/bsc-repro/ompss/internal/metrics"
)

// stats are the server's own instruments. internal/metrics counters are
// plain single-writer values (the simulator is single-threaded), so the
// concurrent HTTP edge accumulates atomics here and renders them through
// a freshly built metrics.Registry on demand — same canonical ids and
// text format, race-free updates.
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

// registry renders one Stats snapshot into an internal/metrics registry.
// The registry is rebuilt per call (single-writer by construction), so
// WriteText output has the standard canonical ordering.
func registry(st cacheStats) *metrics.Registry {
	reg := metrics.New()
	reg.Counter("serve_requests").Add(st.Requests)
	reg.Counter("serve_cache_hit").Add(st.Hits)
	reg.Counter("serve_cache_miss").Add(st.Misses)
	reg.Counter("serve_cache_evict").Add(st.Evictions)
	reg.Counter("serve_dedup_coalesced").Add(st.Coalesced)
	reg.Counter("serve_reject_overload").Add(st.RejectedOverload)
	reg.Counter("serve_bad_requests").Add(st.BadRequests)
	reg.Counter("serve_exec_errors").Add(st.ExecErrors)
	reg.Counter("serve_exec_completed").Add(st.ExecCompleted)
	// Set the high-water mark first so the gauge's Max reflects it, then
	// the instantaneous depth as the current value.
	q := reg.Gauge("serve_queue_depth")
	q.Set(st.QueueMax)
	q.Set(int64(st.QueueDepth))
	reg.Gauge("serve_cache_entries").Set(int64(st.Entries))
	reg.Gauge("serve_cache_bytes").Set(st.Bytes)
	reg.Gauge("serve_jobs").Set(int64(st.Jobs))
	return reg
}
