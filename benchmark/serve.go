package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	hotKeys        = 64
	coldShare      = 500   // one request in coldShare is a never-seen key
	nominalRPS     = 14000 // turns --seconds into a fixed request count
	requestTimeout = 10 * time.Second
	armedSeed      = 1 // hot keys that arm the fault machinery use this seed
	regap          = 2 // seconds before a cold key is asked for again: longer than any point takes to compute
)

// coldExperiments are the quick cluster grids whose points serve_mixed
// requests. Their labels are read from ompss-bench at set-up.
var coldExperiments = []string{"fig11", "fig12", "fig13"}

// point is one grid point of a quick cluster experiment.
type point struct {
	Experiment, Config string
}

// requestBody is the subset of the service's request schema the workload
// uses. seed arms the fault machinery with zero faults and makes the cache
// key unique.
type requestBody struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	GridPoint  string `json:"grid_point"`
	Seed       uint64 `json:"seed,omitempty"`
}

func (p point) body(seed uint64) []byte {
	b, _ := json.Marshal(requestBody{p.Experiment, true, p.Config, seed})
	return b
}

// server is a running ompss-serve with its hot set seeded.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
	done   chan struct{} // closed when the stderr reader has drained
	usage  usage         // valid after stop

	points []point
	hot    [][]byte         // request bodies of the hot set
	hotRes [][]byte         // the response body each hot key was seeded with
	armed  map[point]string // CSV an armed (seeded) request for the point returns
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// startServer discovers the grid points of the quick cluster experiments,
// spawns ompss-serve on an ephemeral port, and seeds the hot set.
func startServer(ctx context.Context, e *env) (*server, error) {
	s := &server{stderr: &bytes.Buffer{}, done: make(chan struct{}), armed: map[point]string{}}
	for _, x := range coldExperiments {
		csvPath := filepath.Join(e.dir, x+".quick.csv")
		if _, _, err := runChild(ctx, time.Minute, nil, e.bench, "-experiment", x, "-quick", "-parallel", "1", "-csv", csvPath); err != nil {
			return nil, err
		}
		rows, err := readCSVFile(csvPath)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			s.points = append(s.points, point{r.Experiment, r.Config})
		}
	}
	if len(s.points) < hotKeys/2 {
		return nil, fmt.Errorf("quick %v have %d grid points, need %d", coldExperiments, len(s.points), hotKeys/2)
	}
	if err := s.spawn(ctx, e.serve); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.seed(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// spawn starts the server and waits until it reports its address.
func (s *server) spawn(ctx context.Context, binary string) error {
	s.cmd = exec.Command(binary, "-addr", "127.0.0.1:0")
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			s.stderr.Write(sc.Bytes())
			s.stderr.WriteByte('\n')
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-addrCh:
		return nil
	case <-s.done:
		return fmt.Errorf("ompss-serve exited before listening: %s", s.stderr)
	case <-time.After(20 * time.Second):
		return fmt.Errorf("ompss-serve did not start listening")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// seed computes every point once armed (a request with a seed field, which
// is how every cold key will ask for it) and the first hotKeys/2 points
// also plain; those hotKeys requests are the hot set.
func (s *server) seed() error {
	c, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer c.close()
	post := func(body []byte) ([]byte, error) {
		status, _, res, err := c.post(body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("seeding %s: status %d: %v", body, status, err)
		}
		return bytes.Clone(res), nil
	}
	for i, p := range s.points {
		armed, err := post(p.body(armedSeed))
		if err != nil {
			return err
		}
		if s.armed[p] = csvOf(armed); s.armed[p] == "" {
			return fmt.Errorf("seeding %v: reply %q carries no rows", p, armed)
		}
		if i < hotKeys/2 {
			plain, err := post(p.body(0))
			if err != nil {
				return err
			}
			s.hot = append(s.hot, p.body(0), p.body(armedSeed))
			s.hotRes = append(s.hotRes, plain, armed)
		}
	}
	return nil
}

// stop asks the server to drain, waits for it to exit, and records its
// resource usage. It is safe to call more than once.
func (s *server) stop() {
	if s.cmd == nil || s.cmd.Process == nil || s.cmd.ProcessState != nil {
		return
	}
	start := time.Now()
	s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(15*time.Second, func() { s.cmd.Process.Kill() })
	<-s.done
	s.cmd.Wait()
	timer.Stop()
	s.usage = usageOf(s.cmd.ProcessState, time.Since(start))
}

// cpuSeconds reads the server's user+system time so far from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	const clockTicks = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / clockTicks, nil
}

// peakRSSMiB reads the server's resident-set high-water mark from /proc.
// rusage's Maxrss will not do here: the kernel starts a child's at its
// parent's, so once the harness has grown past the server (it keeps every
// reply's timing) the server would report the harness's size.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc status of the server has no VmHWM line")
}

// cacheStats is the part of GET /v1/cache/stats the workload reads.
type cacheStats struct {
	Requests         int64 `json:"requests"`
	Hits             int64 `json:"hits"`
	Coalesced        int64 `json:"coalesced"`
	RejectedOverload int64 `json:"rejected_overload"`
	ExecCompleted    int64 `json:"exec_completed"`
	QueueMax         int64 `json:"queue_max"`
}

func (s *server) stats() (cacheStats, error) {
	var st cacheStats
	resp, err := http.Get("http://" + s.addr + "/v1/cache/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("cache stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// client is one keep-alive connection that writes prebuilt requests, so
// the harness spends as little CPU per request as it can: on a small
// machine it competes with the server for the same cores.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	head []byte
	buf  bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	head := "POST /v1/experiments HTTP/1.1\r\nHost: " + addr + "\r\nContent-Type: application/json\r\nContent-Length: "
	return &client{conn: conn, br: bufio.NewReader(conn), head: []byte(head)}, nil
}

func (c *client) close() { c.conn.Close() }

// post sends one request and reads the whole reply. The returned body is
// valid until the next call.
func (c *client) post(body []byte) (status int, cache string, res []byte, err error) {
	c.conn.SetDeadline(time.Now().Add(requestTimeout))
	c.buf.Reset()
	c.buf.Write(c.head)
	c.buf.WriteString(strconv.Itoa(len(body)))
	c.buf.WriteString("\r\n\r\n")
	c.buf.Write(body)
	if _, err = c.conn.Write(c.buf.Bytes()); err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Ompss-Cache"), c.buf.Bytes(), err
}

// splitmix64 is the schedule's generator: fixed here so that a seed means
// the same schedule under every Go release.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// schedule is the fixed request sequence of one serve_mixed run. Slot i
// sends bodies[slots[i]]; bodies[:hot] are the hot set, the rest are cold
// keys, each of which appears exactly twice: a first request that must
// compute, and a later one that must return the same bytes from the cache.
type schedule struct {
	hot    int
	bodies [][]byte
	points []point // per cold body: the grid point it requests
	slots  []int32
}

// buildSchedule draws n requests from seed. A cold key (one slot in
// coldShare) is a grid point plus a never-seen seed field; it is sent
// twice, the second time at least regap seconds' worth of slots after the
// first. A point costs anything from 1 ms to 0.5 s to compute, so the mix
// is kept stationary: first requests are evenly spaced with a random
// offset, and every len(points) consecutive ones visit every point once in
// an order drawn from seed. Two seeds then ask for the same work in a
// different order. Every other slot draws a hot key uniformly.
func buildSchedule(seed uint64, n int, hot [][]byte, points []point) *schedule {
	rng := splitmix64(seed)
	if len(points)%2 == 0 {
		// With an odd number of equally frequent points the median cold
		// reply falls among one point's replies, not in the gap between
		// two points that differ by a quarter.
		points = points[:len(points)-1]
	}
	s := &schedule{hot: len(hot), bodies: append([][]byte(nil), hot...), slots: make([]int32, n)}
	for i := range s.slots {
		s.slots[i] = -1
	}
	place := func(at int, body int32) { // the nearest free slot at or after at, else before it
		i := at
		for i < n && s.slots[i] != -1 {
			i++
		}
		if i == n {
			for i = at; s.slots[i] != -1; i-- {
			}
		}
		s.slots[i] = body
	}
	// Seeds 0 and armedSeed belong to the hot set; cold keys count up from
	// a base far above them, so they are unique within and across points.
	base := rng.next()>>12 + 2
	gap := min(regap*nominalRPS, n/4)
	cold := max(1, n/coldShare/len(points)) * len(points)
	stride := (n - gap) / cold
	order := make([]int, len(points))
	for k := 0; k < cold; k++ {
		if k%len(points) == 0 {
			for i := range order { // inside-out Fisher-Yates
				j := rng.intn(i + 1)
				order[i], order[j] = order[j], i
			}
		}
		p := points[order[k%len(points)]]
		body := int32(len(s.bodies))
		s.bodies = append(s.bodies, p.body(base+uint64(k)))
		s.points = append(s.points, p)
		first := k*stride + rng.intn(stride)
		place(first, body)
		place(first+gap+rng.intn(n-first-gap), body)
	}
	for i := range s.slots {
		if s.slots[i] == -1 {
			s.slots[i] = int32(rng.intn(len(hot)))
		}
	}
	return s
}

// hash identifies the schedule: every body and the order they are sent in.
func (s *schedule) hash() string {
	h := sha256.New()
	for _, b := range s.bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	binary.Write(h, binary.LittleEndian, s.slots)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// csvOf extracts the rows a reply carries.
func csvOf(reply []byte) string {
	var payload struct {
		CSV string `json:"csv"`
	}
	json.Unmarshal(reply, &payload) // an undecodable reply reads as no rows
	return payload.CSV
}

// reply is what the harness kept of one request.
type reply struct {
	startNS, latNS int64 // since the loop started; send to last byte
	warm           bool  // answered from the cache
}

// drive works through the schedule with one closed-loop client per
// processor, each sending its next request when its last one returned, and
// checks every reply: a hot key must return the bytes it was seeded with, a
// cold key's first reply must carry the rows an armed run of its grid point
// gives, and its re-request must return the first reply's bytes.
func drive(ctx context.Context, srv *server, sched *schedule, clients int, res *result) (replies []reply, wallS float64) {
	n := len(sched.slots)
	replies = make([]reply, n)
	var (
		next  atomic.Int64
		mu    sync.Mutex           // guards first and res
		first = map[int32][]byte{} // cold body index -> reply to its first request
		wg    sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		res.fail(fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dial(srv.addr)
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer func() { conn.close() }()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				b := sched.slots[i]
				t0 := time.Now()
				status, cache, body, err := conn.post(sched.bodies[b])
				replies[i] = reply{int64(t0.Sub(start)), int64(time.Since(t0)), cache == "hit"}
				switch {
				case err != nil:
					fail("slot %d: %v", i, err)
					conn.close()
					if conn, err = dial(srv.addr); err != nil {
						fail("redial: %v", err)
						return
					}
				case status != http.StatusOK:
					fail("slot %d: status %d: %s", i, status, bytes.TrimSpace(body))
				case int(b) < sched.hot:
					if !bytes.Equal(body, srv.hotRes[b]) {
						fail("slot %d: hot key %d returned a different body than at seeding", i, b)
					}
				default:
					mu.Lock()
					prev, seen := first[b]
					if !seen {
						first[b] = bytes.Clone(body)
					}
					mu.Unlock()
					p := sched.points[int(b)-sched.hot]
					if seen && !bytes.Equal(body, prev) {
						fail("slot %d: re-request of cold %v returned a different body", i, p)
					}
					if !seen && csvOf(body) != srv.armed[p] {
						fail("slot %d: cold %v returned rows %q, want %q", i, p, csvOf(body), srv.armed[p])
					}
				}
			}
		}()
	}
	wg.Wait()
	wallS = time.Since(start).Seconds()
	res.Attempted += n
	if sent := int(min(next.Load(), int64(n))); sent < n {
		res.Failed += n - sent
		res.fail(fmt.Sprintf("%d of %d requests never sent", n-sent, n))
		replies = replies[:sent]
	}
	return replies, wallS
}

// serveSlices is how many equal parts of the schedule the request metrics
// are computed over; the reported value is the median part, so a stall of
// the machine that lasts a second or two moves one part, not the result.
const serveSlices = 10

// latencyMetrics computes throughput and warm latency per slice of the
// schedule, and cold latency over the whole run (a slice has too few
// misses for a percentile). The warm tail is a per-layer metric: on the
// shared 2-vCPU machine it swings half again as far as the run's wall time
// and left its bound in one set of ten runs (README, "Noise").
func latencyMetrics(replies []reply, res *result) (tail int) {
	var coldMS []float64
	for s := 0; s < serveSlices; s++ {
		part := replies[s*len(replies)/serveSlices : (s+1)*len(replies)/serveSlices]
		if len(part) == 0 {
			continue
		}
		var warmUS []float64
		begin, end := part[0].startNS, int64(0)
		for _, r := range part {
			begin, end = min(begin, r.startNS), max(end, r.startNS+r.latNS)
			if r.warm {
				warmUS = append(warmUS, float64(r.latNS)/1e3)
			} else {
				coldMS = append(coldMS, float64(r.latNS)/1e6)
			}
		}
		sort.Float64s(warmUS)
		tail = tailPercentile(len(warmUS))
		res.Samples["serve_rps"] = append(res.Samples["serve_rps"], float64(len(part))/(float64(end-begin)/1e9))
		res.Samples["serve_warm_p50_us"] = append(res.Samples["serve_warm_p50_us"], percentile(warmUS, 50))
		res.Samples["serve.warm_p99_us"] = append(res.Samples["serve.warm_p99_us"], percentile(warmUS, tail))
	}
	sort.Float64s(coldMS)
	res.Samples["serve_cold_p50_ms"] = coldMS
	for _, name := range []string{"serve_rps", "serve_warm_p50_us", "serve.warm_p99_us", "serve_cold_p50_ms"} {
		res.Values[name] = median(res.Samples[name])
	}
	return tail
}

// runServe measures serve_mixed. With traced set it reports the per-layer
// metrics of the same request loop instead of the end-to-end ones.
func runServe(ctx context.Context, e *env, seed uint64, seconds int, traced bool) *result {
	res := newResult()
	srv := e.server
	sched := buildSchedule(seed, seconds*nominalRPS, srv.hot, srv.points)
	clients := runtime.NumCPU()

	before, err := srv.stats()
	if err != nil {
		res.fail(err.Error())
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		res.fail(err.Error())
	}
	self0 := selfCPU()
	replies, wallS := drive(ctx, srv, sched, clients, res)
	clientCPU := selfCPU() - self0
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		res.fail(err.Error())
	}
	after, err := srv.stats()
	if err != nil {
		res.fail(err.Error())
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		res.fail(err.Error())
	}
	srv.stop()
	serverCPU := cpu1 - cpu0
	requests := max(float64(after.Requests-before.Requests), 1)
	res.Notes = append(res.Notes, fmt.Sprintf("closed loop, %d clients, %d requests (%d cold keys, each sent twice), schedule %s",
		clients, len(sched.slots), len(sched.points), sched.hash()))
	tail := latencyMetrics(replies, res)
	res.Notes = append(res.Notes, fmt.Sprintf("request metrics are the median of %d slices of the schedule; serve.warm_p99_us is p%d; %d cold replies",
		serveSlices, tail, len(res.Samples["serve_cold_p50_ms"])))

	if traced {
		res.Values["serve.hit_ratio"] = float64(after.Hits-before.Hits) / requests
		res.Values["serve.cold_execs"] = float64(after.ExecCompleted - before.ExecCompleted)
		res.Values["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
		res.Values["serve.rejected"] = float64(after.RejectedOverload - before.RejectedOverload)
		res.Values["serve.queue_max"] = float64(after.QueueMax)
		res.Values["serve.cpu_us_per_req"] = serverCPU / requests * 1e6
		res.Values["harness.client_cpu_s"] = clientCPU
		res.Values["go_runtime.nvcsw"] = float64(srv.usage.NVCSw)
		res.Values["go_runtime.nivcsw"] = float64(srv.usage.NIVCSw)
		coldPathProfile(ctx, e, res)
		return res
	}

	res.Values["host_wall_s"] = wallS
	res.Values["host_cpu_s"] = serverCPU
	res.Values["host_peak_rss_mb"] = rss
	if len(res.Samples["serve_warm_p50_us"]) == 0 || len(res.Samples["serve_cold_p50_ms"]) == 0 {
		res.fail("the run produced no warm or no cold reply; the mix needs both")
	}

	// The hot set does not depend on the seed, so the rows its replies
	// carry are this workload's exactly-repeating virtual reading.
	var hotValues []float64
	for _, body := range srv.hotRes {
		rows, err := parseCSV(strings.NewReader(csvOf(body)))
		if err == nil {
			var v []float64
			if v, err = values(rows); err == nil {
				hotValues = append(hotValues, v...)
			}
		}
		if err != nil {
			res.fail(fmt.Sprintf("hot reply: %v", err))
		}
	}
	res.Values["virtual_figure_geomean"] = geomean(hotValues)
	res.alias("virtual_tasks_per_s", "virtual_figure_geomean", 1)
	return res
}

// selfCPU is the user+system time this process has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return timevalSeconds(ru.Utime) + timevalSeconds(ru.Stime)
}

// coldPathProfile attributes the cold path by layer. ompss-serve exposes
// no profile, so the harness replays the experiments the cold keys come
// from through `ompss-bench -quick -cpuprofile`: which layers a miss
// exercises, not the server's absolute time.
func coldPathProfile(ctx context.Context, e *env, res *result) {
	cpu, alloc := map[string]float64{}, map[string]float64{}
	for _, x := range coldExperiments {
		cpuPath := filepath.Join(e.dir, x+".cpu.prof")
		memPath := filepath.Join(e.dir, x+".mem.prof")
		_, _, err := runChild(ctx, time.Minute, nil, e.bench, "-experiment", x, "-quick", "-parallel", "1", "-cpuprofile", cpuPath, "-memprofile", memPath)
		res.op(err)
		if err != nil {
			continue
		}
		res.op(addProfile(ctx, cpu, cpuPath, ""))
		res.op(addProfile(ctx, alloc, memPath, "alloc_space"))
	}
	reportLayers(res, cpu, alloc)
}
