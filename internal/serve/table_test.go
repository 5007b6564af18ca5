package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bsc-repro/ompss/internal/bench"
)

// do drives one request through the route table with no socket in
// between, so many goroutines can hit the same window of the submit path.
func do(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// TestOneExecutionPerHash: however submissions of one never-seen request
// interleave with the job that computes it finishing, the request executes
// once. A submit that found the result not yet cached and then found the
// hash no longer in flight used to admit a second job.
func TestOneExecutionPerHash(t *testing.T) {
	const rounds, clients = 300, 8
	var execs atomic.Int64
	s := startServer(t, Config{Workers: 4, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		execs.Add(1)
		return fakeResult("once"), nil
	}})
	bad := 0
	for r := 0; r < rounds; r++ {
		body := fmt.Sprintf(`{"experiment":"stress","quick":true,"stress_width":%d}`, r+1)
		before := execs.Load()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := do(s, "POST", "/v1/experiments", body); rec.Code != http.StatusOK {
					t.Errorf("round %d: status %d: %s", r, rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		if n := execs.Load() - before; n != 1 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d rounds executed their hash more than once (%d executions, want %d)",
			bad, rounds, execs.Load(), rounds)
	}
	if st := s.Stats(); st.ExecCompleted != rounds || st.Entries != rounds {
		t.Errorf("exec_completed %d, entries %d, want %d each", st.ExecCompleted, st.Entries, rounds)
	}
}

// TestJobSnapshotsAreWhole polls the JSON snapshot of jobs while they run:
// the state is terminal exactly when the last event is, the history starts
// at "queued" with dense sequence numbers, and a job that reads finished
// has its execute span in the stage trace.
func TestJobSnapshotsAreWhole(t *testing.T) {
	const jobs = 200
	s := startServer(t, Config{Workers: 2, Execute: func(req Request, onPoint func(bench.PointDone)) (*bench.ExecResult, error) {
		onPoint(bench.PointDone{Config: "p", Index: 1, Total: 1})
		if req.StressWidth%2 == 0 {
			return nil, fmt.Errorf("even widths fail")
		}
		return fakeResult("whole"), nil
	}})
	torn := 0
	for n := 1; n <= jobs; n++ {
		rec := do(s, "POST", "/v1/experiments?async=1",
			fmt.Sprintf(`{"experiment":"stress","quick":true,"stress_width":%d}`, n))
		var sub struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, %v: %s", n, rec.Code, err, rec.Body)
		}
		for {
			var js jobStatus
			if err := json.Unmarshal(do(s, "GET", "/v1/jobs/"+sub.JobID, "").Body.Bytes(), &js); err != nil {
				t.Fatalf("job %s snapshot: %v", sub.JobID, err)
			}
			finished := js.State == JobDone || js.State == JobError
			whole := len(js.Events) > 0 && js.Events[0].Kind == "queued"
			for i, ev := range js.Events {
				whole = whole && ev.Seq == i
			}
			if whole {
				last := js.Events[len(js.Events)-1].Kind
				whole = finished == (last == "done" || last == "error")
			}
			if whole && finished {
				trace := do(s, "GET", "/v1/jobs/"+sub.JobID+"/trace", "").Body.String()
				whole = strings.Contains(trace, "execute stress")
			}
			if !whole {
				torn++
				t.Logf("torn snapshot of %s: state %q, events %+v", sub.JobID, js.State, js.Events)
			}
			if finished {
				break
			}
		}
	}
	if torn > 0 {
		t.Errorf("%d torn snapshots over %d jobs", torn, jobs)
	}
}
