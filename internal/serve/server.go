package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/bsc-repro/ompss/internal/bench"
	"github.com/bsc-repro/ompss/internal/sim"
	"github.com/bsc-repro/ompss/internal/trace"
)

// ExecuteFunc computes one validated request, reporting grid-point
// completions through onPoint. The default runs internal/bench
// in-process; tests substitute controllable fakes.
type ExecuteFunc func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"; use
	// "127.0.0.1:0" for an ephemeral port).
	Addr string
	// CacheBytes bounds the result cache (default 256 MiB).
	CacheBytes int64
	// Workers is the number of experiment executors (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a cold miss arriving with
	// the queue full is rejected with 429 (default 64).
	QueueDepth int
	// MaxJobs bounds the job table (default 1024; completed jobs are
	// evicted oldest-first past the bound).
	MaxJobs int
	// Execute overrides the experiment executor (tests only).
	Execute ExecuteFunc
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Execute == nil {
		c.Execute = defaultExecute
	}
	return c
}

// defaultExecute runs the request through the bench library on this
// process, with a sequential grid (service concurrency comes from the
// worker pool, not from within one request).
func defaultExecute(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
	o := req.Options()
	o.OnPoint = onPoint
	if req.Trace {
		o.Trace = trace.New()
	}
	return bench.Execute(req.Experiment, o)
}

// Server is the resident experiment service. Create with New, run with
// Start, stop with Shutdown (graceful drain: accepted work finishes,
// new work is refused).
type Server struct {
	cfg     Config
	st      stats
	tab     *table
	workers sync.WaitGroup

	httpSrv *http.Server
	ln      net.Listener
	epoch   time.Time // server-edge timestamp base for progress events
}

// New builds a server (not yet listening).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, tab: newTable(cfg.CacheBytes, cfg.MaxJobs, cfg.QueueDepth)}
}

// elapsedNS is the server-edge event timestamp: wall nanoseconds since
// Start. It stamps progress events and latency numbers only — never a
// cache key, never cached result bytes.
func (s *Server) elapsedNS() int64 {
	return int64(time.Since(s.epoch)) //ompss:wallclock-ok server-edge progress timestamps; never reaches cache keys or result bytes
}

// Start listens on cfg.Addr, launches the worker pool and serves HTTP in
// the background.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.epoch = time.Now() //ompss:wallclock-ok server-edge timestamp base; progress metadata only
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// The listener died underneath us; workers keep draining, and
			// Shutdown still works. Nothing useful to do here without a
			// logger dependency.
			_ = err
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// URL returns the base URL of the running server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown drains gracefully: new experiment submissions are refused,
// queued and running jobs finish, then the HTTP server closes. Safe to
// call once; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.tab.drain() {
		return nil
	}
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

// worker executes queued jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.tab.queue {
		s.runJob(j)
	}
}

// runJob computes one job, stores the result, and releases waiters.
func (s *Server) runJob(j *Job) {
	s.tab.start(j, s.elapsedNS())
	onPoint := func(p bench.PointDone) {
		ev := Event{Kind: "point", Config: p.Config, Index: p.Index, Total: p.Total,
			ElapsedNS: s.elapsedNS()}
		if p.Err != nil {
			ev.Error = p.Err.Error()
		}
		s.tab.point(j, ev)
	}
	er, err := s.execute(j, onPoint)
	var res *Result
	if err == nil {
		res = &Result{
			Hash:        j.Hash,
			Experiment:  j.Experiment,
			Rows:        len(er.Rows),
			CSV:         er.CSV,
			MetricsText: er.MetricsText,
			TraceJSON:   er.TraceJSON,
		}
		s.st.execOK.Add(1)
	} else {
		s.st.execErrors.Add(1)
	}
	s.st.cacheEvicts.Add(int64(s.tab.finish(j, res, err, s.elapsedNS())))
}

// execute runs j's request. A panic here is on a worker goroutine, outside
// any sim process (core.Config validation panics on e.g. an infeasible
// power cap), so the engine's ProcPanicError conversion does not apply: it
// becomes a failed job naming the request, not a dead server.
func (s *Server) execute(j *Job, onPoint func(bench.PointDone)) (er *bench.ExecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic executing %s (key %s): %v", j.Experiment, j.Hash, r)
		}
	}()
	return s.cfg.Execute(j.req, onPoint)
}

// Handler returns the route table (exported so tests can drive the
// server through httptest without a socket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("GET /v1/results/{hash}/trace", s.handleResultTrace)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	mux.HandleFunc("GET /metricsz", s.handleMetricsText)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// resultPayload is the deterministic response body of a computed result.
// It carries no cache/job metadata: a warm hit and the cold run that
// seeded it produce byte-identical bodies (the X-Ompss-Cache header is
// where hit/miss/coalesced shows up).
type resultPayload struct {
	Hash        string `json:"hash"`
	Experiment  string `json:"experiment"`
	Rows        int    `json:"rows"`
	CSV         string `json:"csv"`
	MetricsText string `json:"metrics_text"`
	HasTrace    bool   `json:"has_trace"`
}

func writeResult(w http.ResponseWriter, res *Result, cacheState string) {
	body, err := json.Marshal(resultPayload{
		Hash:        res.Hash,
		Experiment:  res.Experiment,
		Rows:        res.Rows,
		CSV:         string(res.CSV),
		MetricsText: string(res.MetricsText),
		HasTrace:    len(res.TraceJSON) > 0,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ompss-Cache", cacheState)
	w.Write(body)
	w.Write([]byte("\n"))
}

// handleSubmit is POST /v1/experiments: parse, hash, and let the table
// decide in one step — cached, already in flight, or admitted to the
// worker pool. ?async=1 returns immediately with a job id; otherwise the
// handler waits for the result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	async := r.URL.Query().Get("async") == "1"
	req, err := ParseRequest(r.Body)
	if err != nil {
		s.st.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.st.requests.Add(1)
	hash := req.Hash()

	outcome, res, j := s.tab.admit(req, hash, s.elapsedNS())
	if outcome == admitHit {
		s.st.cacheHits.Add(1)
		if async {
			s.writeAsyncAccepted(w, http.StatusOK, "", hash, JobDone)
			return
		}
		writeResult(w, res, outcome)
		return
	}
	s.st.cacheMisses.Add(1)
	switch outcome {
	case admitDraining:
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	case admitFull:
		s.st.rejectOverload.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d deep); retry", s.cfg.QueueDepth)
		return
	case admitCoalesced:
		s.st.coalesced.Add(1)
	}

	if async {
		s.writeAsyncAccepted(w, http.StatusAccepted, j.ID, hash, JobQueued)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return // client went away; the job keeps running for the others
	}
	if j.state == JobError {
		httpError(w, http.StatusInternalServerError, "experiment failed: %s", j.errMsg)
		return
	}
	w.Header().Set("X-Ompss-Job", j.ID)
	writeResult(w, j.res, outcome)
}

// writeAsyncAccepted is the ?async=1 response: a job id to follow (empty
// when the result was already cached — fetch /v1/results/{hash}).
func (s *Server) writeAsyncAccepted(w http.ResponseWriter, status int, jobID, hash, state string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		JobID string `json:"job_id,omitempty"`
		Hash  string `json:"hash"`
		State string `json:"state"`
	}{jobID, hash, state})
}

// jobStatus is the JSON snapshot form of GET /v1/jobs/{id}.
type jobStatus struct {
	ID         string  `json:"id"`
	Hash       string  `json:"hash"`
	Experiment string  `json:"experiment"`
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	Events     []Event `json:"events"`
}

// handleJob is GET /v1/jobs/{id}: a JSON snapshot, or a live SSE stream
// of progress events when the client asks for text/event-stream (or
// ?stream=1). The stream replays history, follows appends, and ends at
// the terminal event.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.tab.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.tab.status(j))
}

// streamJob writes the job's events as Server-Sent Events until the job
// reaches a terminal state or the client disconnects. Graceful drain
// needs no special case: workers finish every admitted job, so the
// terminal event always arrives and ends the stream before the HTTP
// server shuts down.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Ompss-Job", j.ID)
	w.WriteHeader(http.StatusOK)
	next := 0
	for {
		events, changed := s.tab.eventsFrom(j, next)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
		}
		next += len(events)
		fl.Flush()
		if n := len(events); n > 0 {
			if k := events[n-1].Kind; k == "done" || k == "error" {
				return
			}
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the server-side stage
// timeline of one request — queue wait, execution, per-point completions
// — as Perfetto JSON built from the job's progress events.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.tab.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	events, _ := s.tab.eventsFrom(j, 0)
	rec := jobStageTrace(j.Experiment, events)
	w.Header().Set("Content-Type", "application/json")
	if err := rec.WritePerfetto(w); err != nil {
		httpError(w, http.StatusInternalServerError, "encode trace: %v", err)
	}
}

// jobStageTrace rebuilds the serve-stage spans from a job's event log:
// a Stage span for the queue wait, a TaskRun span for the execution, and
// a counter track of completed grid points. Event timestamps are
// server-edge nanoseconds since server start, mapped 1:1 onto the trace
// timebase.
func jobStageTrace(experiment string, events []Event) *trace.Recorder {
	rec := trace.New()
	var queuedAt, startAt sim.Time
	started := false
	points := int64(0)
	for _, ev := range events {
		at := sim.Time(ev.ElapsedNS)
		switch ev.Kind {
		case "queued":
			queuedAt = at
		case "start":
			started = true
			startAt = at
			rec.Begin(trace.Stage, "queue-wait", 0, -1, queuedAt).End(at)
		case "point":
			points++
			rec.Count("grid_points_done", 0, at, points)
		case "done", "error":
			if started {
				rec.Begin(trace.TaskRun, "execute "+experiment, 0, -1, startAt).End(at)
			}
		}
	}
	return rec
}

// handleResult is GET /v1/results/{hash}: the cached artifact by content
// hash.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.tab.result(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for this hash")
		return
	}
	writeResult(w, res, "hit")
}

// handleResultTrace is GET /v1/results/{hash}/trace: the stored Perfetto
// trace bytes of the designated grid point.
func (s *Server) handleResultTrace(w http.ResponseWriter, r *http.Request) {
	res, ok := s.tab.result(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for this hash")
		return
	}
	if len(res.TraceJSON) == 0 {
		httpError(w, http.StatusNotFound, "result has no trace; request with \"trace\": true (fig10)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.TraceJSON)
}

// CacheStats is the GET /v1/cache/stats payload.
type CacheStats struct {
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	MaxBytes         int64  `json:"max_bytes"`
	Requests         int64  `json:"requests"`
	Hits             int64  `json:"hits"`
	Misses           int64  `json:"misses"`
	Evictions        int64  `json:"evictions"`
	Coalesced        int64  `json:"coalesced"`
	RejectedOverload int64  `json:"rejected_overload"`
	BadRequests      int64  `json:"bad_requests"`
	ExecCompleted    int64  `json:"exec_completed"`
	ExecErrors       int64  `json:"exec_errors"`
	QueueDepth       int    `json:"queue_depth"`
	QueueMax         int64  `json:"queue_max"`
	Workers          int    `json:"workers"`
	Jobs             int    `json:"jobs"`
	Draining         bool   `json:"draining"`
	KeyVersion       string `json:"key_version"`
	BuildID          string `json:"build_id"`
}

// Stats snapshots the serving counters; the table's share of them
// (entries, bytes, queue, jobs, draining) is one instant.
func (s *Server) Stats() CacheStats {
	st := s.tab.gauges()
	st.MaxBytes = s.cfg.CacheBytes
	st.Requests = s.st.requests.Load()
	st.Hits = s.st.cacheHits.Load()
	st.Misses = s.st.cacheMisses.Load()
	st.Evictions = s.st.cacheEvicts.Load()
	st.Coalesced = s.st.coalesced.Load()
	st.RejectedOverload = s.st.rejectOverload.Load()
	st.BadRequests = s.st.badRequests.Load()
	st.ExecCompleted = s.st.execOK.Load()
	st.ExecErrors = s.st.execErrors.Load()
	st.Workers = s.cfg.Workers
	st.KeyVersion = KeyVersion
	st.BuildID = BuildID()
	return st
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// handleMetricsText is GET /metricsz: the same snapshot rendered through
// the internal/metrics registry in its canonical text format.
func (s *Server) handleMetricsText(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	registry(s.Stats()).WriteText(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.tab.gauges().Draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
