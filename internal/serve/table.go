package serve

import (
	"slices"
	"strconv"
	"sync"
)

// Job states.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobError   = "error"
)

// event is one progress notification of a job, in append order. Seq is
// the event's index; ElapsedNS is server-edge wall time since the job was
// admitted (progress metadata only — it never enters cached result
// bytes).
type event struct {
	Seq       int    `json:"seq"`
	Kind      string `json:"kind"` // queued, start, point, done, error
	Config    string `json:"config,omitempty"`
	Index     int    `json:"index,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// job tracks one admitted computation: exactly one per distinct in-flight
// config hash (coalesced requests share it). Subscribers replay the event
// history and then follow live appends. The identity fields never change;
// the rest belongs to the table and is read and written under its mutex.
// finish closes done last, so a goroutine that has received from done may
// read state, res and errMsg without the lock: nothing writes them again.
type job struct {
	ID         string
	Hash       string
	Experiment string
	req        Request       // the validated request this job computes
	body       string        // its raw body, the result's byte index key
	done       chan struct{} // closed once state is terminal

	state   string
	events  []event
	changed chan struct{} // closed and replaced on every append
	res     *result
	errMsg  string
}

// terminal reports whether the job has finished (done or error).
func (j *job) terminal() bool { return j.state == jobDone || j.state == jobError }

// append records ev (stamping Seq) and wakes subscribers.
func (j *job) append(ev event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// table is everything requests share — the result LRU, the jobs and their
// eviction order, the in-flight (singleflight) map, the admission queue and
// the draining flag — under the package's one mutex. Each step of the
// request path is one critical section (admit, start, point, finish), so no
// request can see a hash that is neither cached nor in flight while its job
// exists, or a job state without the event that announces it.
type table struct {
	mu       sync.Mutex
	results  *cache
	maxJobs  int
	nextID   int64
	jobs     map[string]*job
	order    []string        // job ids in admission order, for eviction
	inflight map[string]*job // config hash -> the one job computing it
	queue    chan *job       // admitted jobs no worker has picked up yet
	queueMax int             // high-water mark of len(queue)
	draining bool
}

func newTable(cacheBytes int64, maxJobs, queueDepth int) *table {
	return &table{
		results:  newCache(cacheBytes),
		maxJobs:  maxJobs,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		queue:    make(chan *job, queueDepth),
	}
}

// What admit found: the X-Ompss-Cache states plus the two refusals.
const (
	admitHit       = "hit"       // cached; res is set
	admitCoalesced = "coalesced" // j is the job already computing this hash
	admitMiss      = "miss"      // j is new and queued
	admitFull      = "full"      // cold miss with the admission queue full
	admitDraining  = "draining"  // cold miss after Shutdown began
)

// admit is the submit path's one critical section: serve from the cache,
// or join the in-flight job, or queue a new one. The job table stays
// bounded by evicting finished jobs oldest-first — never a live one, a
// subscriber must always be able to follow an admitted job to its end.
func (t *table) admit(req Request, body []byte, hash string, now int64) (outcome string, res *result, j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if hit, ok := t.results.get(hash); ok {
		return admitHit, hit, nil
	}
	if t.draining {
		return admitDraining, nil, nil
	}
	if running, ok := t.inflight[hash]; ok {
		return admitCoalesced, nil, running
	}
	t.nextID++
	j = &job{
		ID:         "j" + strconv.FormatInt(t.nextID, 10),
		Hash:       hash,
		Experiment: req.Experiment,
		req:        req,
		body:       string(body),
		done:       make(chan struct{}),
		state:      jobQueued,
		events:     []event{{Kind: "queued", ElapsedNS: now}},
		changed:    make(chan struct{}),
	}
	select {
	case t.queue <- j:
	default:
		return admitFull, nil, nil
	}
	t.queueMax = max(t.queueMax, len(t.queue))
	t.inflight[hash] = j
	t.jobs[j.ID] = j
	t.order = append(t.order, j.ID)
	t.trim()
	return admitMiss, nil, j
}

// trim evicts finished jobs oldest-first until the table is within
// maxJobs. Live jobs stay, so the table may exceed the bound while they
// run; admit and finish both trim, so it never stays over at rest.
func (t *table) trim() {
	for len(t.jobs) > t.maxJobs {
		i := slices.IndexFunc(t.order, func(id string) bool { return t.jobs[id].terminal() })
		if i < 0 {
			return
		}
		delete(t.jobs, t.order[i])
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// start moves j from queued to running.
func (t *table) start(j *job, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.state = jobRunning
	j.append(event{Kind: "start", ElapsedNS: now})
}

// point appends a progress event to j.
func (t *table) point(j *job, ev event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j.append(ev)
}

// finish is the completion path's one critical section: the result enters
// the cache, the hash leaves the in-flight map and the job takes its
// terminal state together with the event that announces it; then done
// releases every waiter. It returns how many cache entries the put
// evicted, and must be called exactly once per job.
func (t *table) finish(j *job, res *result, err error, now int64) (evicted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inflight, j.Hash)
	if err != nil {
		j.state, j.errMsg = jobError, err.Error()
		j.append(event{Kind: "error", Error: j.errMsg, ElapsedNS: now})
	} else {
		evicted = t.results.put(res)
		j.state, j.res = jobDone, res
		j.append(event{Kind: "done", ElapsedNS: now})
	}
	t.trim()
	close(j.done)
	return evicted
}

// drain refuses new work from here on and closes the queue so the workers
// exit once it is empty; admit sends under the same mutex and checks
// draining first, so the close cannot race a send. It reports false when
// the table was already draining.
func (t *table) drain() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	t.draining = true
	close(t.queue)
	return true
}

// job looks a job up by id.
func (t *table) job(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// result returns the cached result for hash and refreshes its recency.
func (t *table) result(hash string) (*result, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.results.get(hash)
}

// cached returns the cached result a raw request body computed, unparsed.
func (t *table) cached(body []byte) (*result, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.results.getBody(body)
}

// eventsFrom returns j's events at index >= from plus a channel that is
// closed on the next append — the subscription primitive SSE streaming
// loops on.
func (t *table) eventsFrom(j *job, from int) ([]event, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(j.events[min(from, len(j.events)):]), j.changed
}

// status is the GET /v1/jobs/{id} snapshot: state, error and events of one
// instant.
func (t *table) status(j *job) jobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return jobStatus{
		ID: j.ID, Hash: j.Hash, Experiment: j.Experiment,
		State: j.state, Error: j.errMsg, Events: slices.Clone(j.events),
	}
}

// gauges fills in the table's share of the stats payload, all of it read at
// one instant.
func (t *table) gauges() cacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	entries, bytes := t.results.stats()
	return cacheStats{
		Entries: entries, Bytes: bytes, Jobs: len(t.jobs),
		QueueDepth: len(t.queue), QueueMax: int64(t.queueMax), Draining: t.draining,
	}
}
