package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/bench"
)

// startServer boots a server on an ephemeral port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// post submits one synchronous experiment request and returns status,
// body, and the X-Ompss-Cache header.
func post(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b, resp.Header.Get("X-Ompss-Cache")
}

// fakeResult builds a deterministic ExecResult for fake executors.
func fakeResult(tag string) *bench.ExecResult {
	return &bench.ExecResult{
		Rows:        []bench.Row{},
		CSV:         []byte("experiment,config,value,unit\nfake," + tag + ",1,u\n"),
		MetricsText: []byte("# fake " + tag + "\n"),
	}
}

// TestColdWarmByteIdentity runs a real (cheap, deterministic) experiment
// twice: the cold miss and the warm hit must produce byte-identical
// response bodies — hit-vs-miss is visible only in the header. A second
// fresh server computing the same request cold must also produce the
// same bytes, which is the cross-restart determinism the cache key
// depends on.
func TestColdWarmByteIdentity(t *testing.T) {
	body := `{"experiment":"table1","quick":true}`
	s := startServer(t, Config{})
	st1, cold, hdr1 := post(t, s.URL(), body)
	st2, warm, hdr2 := post(t, s.URL(), body)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("status %d / %d; cold body: %s", st1, st2, cold)
	}
	if hdr1 != "miss" || hdr2 != "hit" {
		t.Fatalf("cache headers = %q, %q; want miss, hit", hdr1, hdr2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm bodies differ:\ncold: %s\nwarm: %s", cold, warm)
	}

	s2 := startServer(t, Config{})
	st3, cold2, _ := post(t, s2.URL(), body)
	if st3 != http.StatusOK {
		t.Fatalf("second server status %d", st3)
	}
	if !bytes.Equal(cold, cold2) {
		t.Fatalf("two cold computations of the same request differ")
	}
}

// TestSingleflightCoalesces fires many identical concurrent requests at a
// blocking executor: exactly one execution happens, everyone gets the
// same bytes, and the dedup counter accounts for the rest. A warm burst
// over distinct cached keys then executes nothing.
func TestSingleflightCoalesces(t *testing.T) {
	const n = 24
	gate := make(chan struct{})
	var execs atomic.Int64
	cfg := Config{Workers: 4, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		execs.Add(1)
		<-gate
		return fakeResult(req.Experiment), nil
	}}
	s := startServer(t, cfg)

	var wg sync.WaitGroup
	bodiesCh := make(chan []byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, b, _ := post(t, s.URL(), `{"experiment":"heat","quick":true}`)
			bodiesCh <- b
		}()
	}
	// Release the executor once every request is accounted for (admitted
	// or coalesced onto the in-flight job).
	deadline := time.After(10 * time.Second)
	for s.Stats().Requests < n {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d requests admitted", s.Stats().Requests, n)
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()
	close(bodiesCh)

	var first []byte
	for b := range bodiesCh {
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("coalesced responses differ")
		}
	}
	st := s.Stats()
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.ExecCompleted != 1 {
		t.Fatalf("exec_completed = %d, want 1", st.ExecCompleted)
	}

	// The warm burst: with three distinct keys cached, concurrent clients
	// cycling over them are all served from the cache, each with its own
	// key's cold body byte for byte.
	t.Run("warm burst", func(t *testing.T) {
		keys := []string{`{"experiment":"heat","quick":true}`, `{"experiment":"fig9","quick":true}`, `{"experiment":"fig11","quick":true}`}
		cold := map[string][]byte{keys[0]: first}
		for _, k := range keys[1:] {
			status, b, hdr := post(t, s.URL(), k)
			if status != http.StatusOK || hdr != "miss" {
				t.Fatalf("seeding %s: status %d, X-Ompss-Cache %q", k, status, hdr)
			}
			cold[k] = b
		}
		const clients, rounds = 16, 3
		var burst sync.WaitGroup
		for c := 0; c < clients; c++ {
			burst.Add(1)
			go func() {
				defer burst.Done()
				for r := 0; r < rounds; r++ {
					k := keys[(c+r)%len(keys)]
					resp, err := http.Post(s.URL()+"/v1/experiments", "application/json", strings.NewReader(k))
					if err != nil {
						t.Errorf("warm %s: %v", k, err)
						return
					}
					b, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ompss-Cache") != "hit" {
						t.Errorf("warm %s: status %d, X-Ompss-Cache %q, %v", k, resp.StatusCode, resp.Header.Get("X-Ompss-Cache"), err)
					} else if !bytes.Equal(b, cold[k]) {
						t.Errorf("warm %s: body differs from its cold body", k)
					}
				}
			}()
		}
		burst.Wait()
		if got := execs.Load(); got != int64(len(keys)) {
			t.Fatalf("executions after the warm burst = %d, want %d", got, len(keys))
		}
	})
}

// TestOverloadRejects fills the one-deep queue behind a blocked worker
// and checks the next distinct cold request bounces with 429 without
// disturbing the admitted ones.
func TestOverloadRejects(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: 1, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		<-gate
		return fakeResult(req.Experiment), nil
	}}
	s := startServer(t, cfg)

	submitAsync := func(body string) (int, string) {
		resp, err := http.Post(s.URL()+"/v1/experiments?async=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var out struct {
			JobID string `json:"job_id"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.JobID
	}

	st1, job1 := submitAsync(`{"experiment":"heat"}`)
	if st1 != http.StatusAccepted {
		t.Fatalf("first submit status %d", st1)
	}
	// Wait until the worker owns job 1, so the queue slot is free for
	// job 2 and the third submission must be rejected.
	waitJobState(t, s, job1, JobRunning)
	if st2, _ := submitAsync(`{"experiment":"fig9"}`); st2 != http.StatusAccepted {
		t.Fatalf("second submit status %d", st2)
	}
	st3, _ := submitAsync(`{"experiment":"fig11"}`)
	if st3 != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", st3)
	}
	close(gate)
	if st := s.Stats(); st.RejectedOverload != 1 {
		t.Fatalf("rejected_overload = %d, want 1", st.RejectedOverload)
	}
}

// waitJobState polls GET /v1/jobs/{id} until the job reaches state.
func waitJobState(t *testing.T, s *Server, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.URL() + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("get job: %v", err)
		}
		var js jobStatus
		json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if js.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, js.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncSSEProgress follows an async job over SSE and checks the
// ordered event protocol: queued, start, the grid points, done — with
// consecutive sequence numbers.
func TestAsyncSSEProgress(t *testing.T) {
	cfg := Config{Workers: 1, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		onPoint(bench.PointDone{Experiment: req.Experiment, Config: "p1", Index: 1, Total: 2})
		onPoint(bench.PointDone{Experiment: req.Experiment, Config: "p2", Index: 2, Total: 2})
		return fakeResult("sse"), nil
	}}
	s := startServer(t, cfg)

	resp, err := http.Post(s.URL()+"/v1/experiments?async=1", "application/json",
		strings.NewReader(`{"experiment":"heat"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		JobID string `json:"job_id"`
		Hash  string `json:"hash"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" {
		t.Fatalf("submit: status %d, job %q", resp.StatusCode, sub.JobID)
	}

	stream, err := http.Get(s.URL() + "/v1/jobs/" + sub.JobID + "?stream=1")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var kinds []string
	var seqs []int
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		kinds = append(kinds, ev.Kind)
		seqs = append(seqs, ev.Seq)
		if ev.Kind == "done" || ev.Kind == "error" {
			break
		}
	}
	want := []string{"queued", "start", "point", "point", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("event %d has seq %d", i, seq)
		}
	}

	// The finished result is addressable by hash, and the job snapshot is
	// terminal.
	res, err := http.Get(s.URL() + "/v1/results/" + sub.Hash)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("result by hash: %v status %d", err, res.StatusCode)
	}
	res.Body.Close()
}

// TestResultTraceEndpoints: trace bytes are served verbatim when present
// and 404 otherwise, for both present and absent hashes.
func TestResultTraceEndpoints(t *testing.T) {
	traceBytes := []byte(`{"traceEvents":[]}`)
	cfg := Config{Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		r := fakeResult("tr")
		r.TraceJSON = traceBytes
		return r, nil
	}}
	s := startServer(t, cfg)
	_, _, _ = post(t, s.URL(), `{"experiment":"heat"}`)
	hash := parse(t, `{"experiment":"heat"}`).Hash()

	resp, err := http.Get(s.URL() + "/v1/results/" + hash + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, traceBytes) {
		t.Fatalf("trace status %d body %s", resp.StatusCode, got)
	}
	if resp, _ = http.Get(s.URL() + "/v1/results/ffffffffffffffffffffffffffffffff/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing hash trace status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestExecErrorPropagates: a failing execution turns into HTTP 500 for
// sync waiters, an error event for followers, and no cache entry — the
// next request retries.
func TestExecErrorPropagates(t *testing.T) {
	var execs atomic.Int64
	cfg := Config{Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		if execs.Add(1) == 1 {
			return nil, fmt.Errorf("transient boom")
		}
		return fakeResult("ok"), nil
	}}
	s := startServer(t, cfg)
	st1, body1, _ := post(t, s.URL(), `{"experiment":"heat"}`)
	if st1 != http.StatusInternalServerError || !strings.Contains(string(body1), "transient boom") {
		t.Fatalf("first request: status %d body %s", st1, body1)
	}
	st2, _, hdr := post(t, s.URL(), `{"experiment":"heat"}`)
	if st2 != http.StatusOK || hdr != "miss" {
		t.Fatalf("retry: status %d cache %q", st2, hdr)
	}
	if st := s.Stats(); st.ExecErrors != 1 || st.ExecCompleted != 1 {
		t.Fatalf("exec errors/completed = %d/%d", st.ExecErrors, st.ExecCompleted)
	}
}

// TestExecPanicFailsTheJobNotTheServer: a panic on the worker goroutine
// becomes a 500 naming the panic and the request key; the server keeps
// answering health checks and the next request.
func TestExecPanicFailsTheJobNotTheServer(t *testing.T) {
	cfg := Config{Workers: 1, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		if req.Experiment == "powercap" {
			panic("core: power cap below the feasibility floor")
		}
		return fakeResult("ok"), nil
	}}
	s := startServer(t, cfg)
	bad := Request{Experiment: "powercap"}
	st, body, _ := post(t, s.URL(), `{"experiment":"powercap"}`)
	if st != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d body %s", st, body)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("500 body is not JSON: %v: %s", err, body)
	}
	if !strings.Contains(e.Error, "feasibility floor") || !strings.Contains(e.Error, bad.Hash()) {
		t.Fatalf("500 body names neither the panic nor key %s: %s", bad.Hash(), e.Error)
	}
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatalf("healthz after panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", resp.StatusCode)
	}
	if st, _, hdr := post(t, s.URL(), `{"experiment":"heat"}`); st != http.StatusOK || hdr != "miss" {
		t.Fatalf("good request after panic: status %d cache %q", st, hdr)
	}
	// The inflight entry was removed: the same request runs (and fails) again
	// instead of waiting on a job that never finishes.
	if st, _, _ := post(t, s.URL(), `{"experiment":"powercap"}`); st != http.StatusInternalServerError {
		t.Fatalf("repeat of the panicking request: status %d", st)
	}
	if st := s.Stats(); st.ExecErrors != 2 || st.ExecCompleted != 1 {
		t.Fatalf("exec errors/completed = %d/%d, want 2/1", st.ExecErrors, st.ExecCompleted)
	}
}

// TestBadRequestsRejected: malformed bodies and invalid knob combinations
// are 400s and counted, never queued.
func TestBadRequestsRejected(t *testing.T) {
	s := startServer(t, Config{})
	for _, body := range []string{`not json`, `{"experiment":"nope"}`, `{"experiment":"fig5","seed":1}`} {
		if st, _, _ := post(t, s.URL(), body); st != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, st)
		}
	}
	if st := s.Stats(); st.BadRequests != 3 {
		t.Fatalf("bad_requests = %d, want 3", st.BadRequests)
	}
}

// TestDrainFinishesAdmittedWork: Shutdown waits for queued and running
// jobs, refuses new work afterwards, and is idempotent.
func TestDrainFinishesAdmittedWork(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{Workers: 1, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		<-gate
		return fakeResult("drain"), nil
	}}
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	resp, err := http.Post(s.URL()+"/v1/experiments?async=1", "application/json",
		strings.NewReader(`{"experiment":"heat"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		JobID string `json:"job_id"`
		Hash  string `json:"hash"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	waitJobState(t, s, sub.JobID, JobRunning)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// The drain must be blocked on the running job right now.
	select {
	case err := <-done:
		t.Fatalf("shutdown returned %v before the job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The admitted job finished and its result was cached before drain
	// completed.
	if _, ok := s.tab.result(sub.Hash); !ok {
		t.Fatalf("drained job's result not cached")
	}
	// New work is refused (the listener is down).
	if _, err := http.Post(s.URL()+"/v1/experiments", "application/json",
		strings.NewReader(`{"experiment":"heat"}`)); err == nil {
		t.Fatalf("post after drain succeeded")
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestNoGoroutineLeak runs a full server lifecycle — boot, mixed burst
// (sync, async, SSE), drain — and checks the goroutine count returns to
// baseline.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		cfg := Config{Workers: 4, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
			onPoint(bench.PointDone{Config: "p", Index: 1, Total: 1})
			return fakeResult(req.Experiment), nil
		}}
		cfg.Addr = "127.0.0.1:0"
		s := New(cfg)
		if err := s.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 40; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				exp := []string{"heat", "fig9", "fig11", "fig12"}[i%4]
				post(t, s.URL(), `{"experiment":"`+exp+`","lookahead":`+fmt.Sprint(i%8)+`}`)
			}(i)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		http.DefaultClient.CloseIdleConnections()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > baseline %d+3\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthzAndMetricsEndpoints sanity-checks the operational surface.
func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := startServer(t, Config{})
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	_, _, _ = post(t, s.URL(), `{"experiment":"table1","quick":true}`)
	_, _, _ = post(t, s.URL(), `{"experiment":"table1","quick":true}`)

	resp, err = http.Get(s.URL() + "/metricsz")
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"counter serve_requests value=2", "counter serve_cache_hit value=1", "counter serve_cache_miss value=1"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metricsz missing %q:\n%s", want, text)
		}
	}

	var st CacheStats
	resp, err = http.Get(s.URL() + "/v1/cache/stats")
	if err != nil {
		t.Fatalf("cache/stats: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.KeyVersion != KeyVersion {
		t.Fatalf("stats = %+v", st)
	}

	// The table's share of a snapshot is one instant: while distinct cold
	// requests stream through a job table bounded at one finished job,
	// every queued job is a registered job and every cached result is
	// charged — in /v1/cache/stats and in /metricsz alike.
	fake := fakeResult("stats")
	charge := (&Result{CSV: fake.CSV, MetricsText: fake.MetricsText}).sizeBytes()
	s2 := startServer(t, Config{Workers: 2, MaxJobs: 1, Execute: func(Request, func(bench.PointDone)) (*bench.ExecResult, error) {
		return fake, nil
	}})
	var submitters sync.WaitGroup
	for c := 0; c < 4; c++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 100; i++ {
				do(s2, "POST", "/v1/experiments", fmt.Sprintf(`{"experiment":"stress","stress_width":%d}`, 1+c*100+i))
			}
		}()
	}
	submitted := make(chan struct{})
	go func() { submitters.Wait(); close(submitted) }()
	var entries, bytes int64 // as /metricsz last reported them
	for polling := true; polling; {
		select {
		case <-submitted:
			polling = false // and read once more, at rest
		default:
		}
		var st CacheStats
		if err := json.Unmarshal(do(s2, "GET", "/v1/cache/stats", "").Body.Bytes(), &st); err != nil {
			t.Fatalf("cache/stats: %v", err)
		}
		if st.Jobs < st.QueueDepth || st.Bytes != int64(st.Entries)*charge {
			t.Fatalf("snapshot disagrees with itself: jobs %d, queue_depth %d, entries %d, bytes %d (each entry charges %d)",
				st.Jobs, st.QueueDepth, st.Entries, st.Bytes, charge)
		}
		text := do(s2, "GET", "/metricsz", "").Body.String()
		for _, line := range strings.Split(text, "\n") {
			fmt.Sscanf(line, "gauge serve_cache_entries value=%d", &entries)
			fmt.Sscanf(line, "gauge serve_cache_bytes value=%d", &bytes)
		}
		if bytes != entries*charge {
			t.Fatalf("metricsz disagrees with itself: %d entries, %d bytes:\n%s", entries, bytes, text)
		}
	}
	if st := s2.Stats(); st.Entries != 400 || entries != 400 || st.Jobs != 1 || st.QueueDepth != 0 {
		t.Fatalf("at rest: metricsz has %d entries; stats = %+v", entries, st)
	}
}

// TestJobTraceEndpoint: the per-job stage trace renders the queue-wait
// and execute spans from the event log.
func TestJobTraceEndpoint(t *testing.T) {
	s := startServer(t, Config{Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		onPoint(bench.PointDone{Config: "p", Index: 1, Total: 1})
		return fakeResult("jt"), nil
	}})
	resp, err := http.Post(s.URL()+"/v1/experiments?async=1", "application/json",
		strings.NewReader(`{"experiment":"heat"}`))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	waitJobState(t, s, sub.JobID, JobDone)

	tr, err := http.Get(s.URL() + "/v1/jobs/" + sub.JobID + "/trace")
	if err != nil {
		t.Fatalf("job trace: %v", err)
	}
	body, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	for _, want := range []string{"queue-wait", "execute heat", "grid_points_done"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("job trace missing %q:\n%s", want, body)
		}
	}
}
