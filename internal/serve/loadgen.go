package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures the load driver (`ompss-serve -selftest`, which
// `make loadtest` runs).
type LoadOptions struct {
	// BaseURL of a running server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent clients (default 1000).
	Clients int
	// Requests per client in the warm burst (default 5).
	Requests int
	// Distinct is how many distinct configurations the generated request
	// set contains when Configs is nil (default 8).
	Distinct int
	// Configs overrides the generated request set.
	Configs []Request
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 1000
	}
	if o.Requests <= 0 {
		o.Requests = 5
	}
	if o.Distinct <= 0 {
		o.Distinct = 8
	}
	if len(o.Configs) == 0 {
		o.Configs = DefaultLoadRequests(o.Distinct)
	}
	return o
}

// DefaultLoadRequests builds n distinct cheap requests: small stress
// grids whose width varies, so every request is a different cache key
// with a few thousand simulated tasks behind it.
func DefaultLoadRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Experiment:  "stress",
			Quick:       true,
			StressWidth: 400 + i,
			StressDepth: 2,
		}
	}
	return reqs
}

// LoadReport is the outcome of one load run. Latencies are wall
// nanoseconds observed at the client; HitRate and Coalesced come from the
// server's own counters over the warm burst.
type LoadReport struct {
	Clients      int     `json:"clients"`
	Distinct     int     `json:"distinct_configs"`
	ColdRequests int     `json:"cold_requests"`
	ColdP50NS    int64   `json:"cold_p50_ns"`
	ColdMaxNS    int64   `json:"cold_max_ns"`
	WarmRequests int     `json:"warm_requests"`
	WarmP50NS    int64   `json:"warm_p50_ns"`
	WarmP99NS    int64   `json:"warm_p99_ns"`
	WarmWallNS   int64   `json:"warm_wall_ns"`
	WarmRPS      float64 `json:"warm_rps"`
	HitRate      float64 `json:"hit_rate"`
	Coalesced    int64   `json:"coalesced"`
	Rejected     int     `json:"rejected_overload"`
	Errors       int     `json:"errors"`
}

// RunLoad drives a running server through the canonical two-phase load
// test: a sequential cold pass that seeds every distinct configuration,
// then a concurrent warm burst in which every request should be a cache
// hit. It returns client-side latency percentiles plus the server-side
// hit rate over the burst.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        opts.Clients,
			MaxIdleConnsPerHost: opts.Clients,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	bodies := make([][]byte, len(opts.Configs))
	for i, req := range opts.Configs {
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode config %d: %w", i, err)
		}
		bodies[i] = b
	}

	rep := &LoadReport{Clients: opts.Clients, Distinct: len(opts.Configs)}

	// Cold pass: seed each distinct configuration once, sequentially, so
	// the cold latencies measure computation rather than queueing.
	cold := make([]int64, 0, len(bodies))
	for i, body := range bodies {
		ns, status, err := timedPost(client, opts.BaseURL, body)
		if err != nil {
			return nil, fmt.Errorf("cold request %d: %w", i, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("cold request %d: status %d", i, status)
		}
		cold = append(cold, ns)
	}
	rep.ColdRequests = len(cold)
	rep.ColdP50NS = percentile(cold, 50)
	rep.ColdMaxNS = percentile(cold, 100)

	before, err := fetchStats(client, opts.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("stats before burst: %w", err)
	}

	// Warm burst: every client hammers the seeded configurations
	// round-robin; with the cache warm, each request should be a hit.
	var (
		wg       sync.WaitGroup
		errs     atomic.Int64
		rejected atomic.Int64
		lat      = make([][]int64, opts.Clients)
	)
	burstStart := time.Now() //ompss:wallclock-ok client-side load measurement; never reaches cache keys or results
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]int64, 0, opts.Requests)
			for k := 0; k < opts.Requests; k++ {
				body := bodies[(c+k)%len(bodies)]
				ns, status, err := timedPost(client, opts.BaseURL, body)
				switch {
				case err != nil:
					errs.Add(1)
				case status == http.StatusTooManyRequests:
					rejected.Add(1)
				case status != http.StatusOK:
					errs.Add(1)
				default:
					mine = append(mine, ns)
				}
			}
			lat[c] = mine
		}(c)
	}
	wg.Wait()
	rep.WarmWallNS = int64(time.Since(burstStart)) //ompss:wallclock-ok client-side load measurement; never reaches cache keys or results

	var warm []int64
	for _, mine := range lat {
		warm = append(warm, mine...)
	}
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	rep.WarmRequests = len(warm)
	rep.WarmP50NS = percentile(warm, 50)
	rep.WarmP99NS = percentile(warm, 99)
	if rep.WarmWallNS > 0 {
		rep.WarmRPS = float64(len(warm)) / (float64(rep.WarmWallNS) / 1e9)
	}
	rep.Errors = int(errs.Load())
	rep.Rejected = int(rejected.Load())

	after, err := fetchStats(client, opts.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("stats after burst: %w", err)
	}
	if served := after.Requests - before.Requests; served > 0 {
		rep.HitRate = float64(after.Hits-before.Hits) / float64(served)
	}
	rep.Coalesced = after.Coalesced - before.Coalesced
	return rep, nil
}

// timedPost issues one synchronous experiment request and returns the
// observed latency, status code, and transport error.
func timedPost(client *http.Client, baseURL string, body []byte) (int64, int, error) {
	start := time.Now() //ompss:wallclock-ok client-side latency measurement; never reaches cache keys or results
	resp, err := client.Post(baseURL+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ns := int64(time.Since(start)) //ompss:wallclock-ok client-side latency measurement; never reaches cache keys or results
	return ns, resp.StatusCode, nil
}

// fetchStats reads /v1/cache/stats.
func fetchStats(client *http.Client, baseURL string) (CacheStats, error) {
	var st CacheStats
	resp, err := client.Get(baseURL + "/v1/cache/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// percentile returns the p-th percentile (nearest-rank) of sorted-or-not
// samples; 0 when empty.
func percentile(samples []int64, p int) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (p*len(s) + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}
