package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/faults"
)

// parse is a test helper for request bodies.
func parse(t *testing.T, body string) Request {
	t.Helper()
	r, err := parseRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parseRequest(%s): %v", body, err)
	}
	return r
}

// TestHashFieldOrderInsensitive is the core cache-key property: the hash
// is computed from the canonical encoding, so JSON field order,
// whitespace, and fault-plan spelling variations never split the cache.
func TestHashFieldOrderInsensitive(t *testing.T) {
	a := parse(t, `{"experiment":"heat","quick":true,"grid_point":"2node ompss","seed":7,
		"fault_plan":{"drop_rate":0.25,"stalls":[{"node":1,"at_ns":100,"duration_ns":50}]}}`)
	b := parse(t, `{"fault_plan":{"stalls":[{"duration_ns":50,"at_ns":100,"node":1}],"drop_rate":0.25},
		"seed":7,"grid_point":"2node ompss","quick":true,"experiment":"heat"}`)
	if a.hash() != b.hash() {
		t.Fatalf("field order changed the hash: %s vs %s", a.hash(), b.hash())
	}
}

// TestHashExplicitDefaultsMatchOmitted: writing the zero value explicitly,
// or naming the scheduler a cluster experiment runs anyway, means the same
// run as omitting the field, so it must hash identically. A scheduler the
// experiment does not run by default must not.
func TestHashExplicitDefaultsMatchOmitted(t *testing.T) {
	same := [][2]string{
		{`{"experiment":"heat"}`, `{"experiment":"heat","quick":false,"trace":false,"seed":0,"grid_point":"","scheduler":""}`},
		{`{"experiment":"fig13"}`, `{"experiment":"fig13","scheduler":"dependencies"}`},
		{`{"experiment":"fig13"}`, `{"experiment":"fig13","scheduler":"default"}`},
	}
	for _, exp := range []string{"fig9", "fig10", "fig11", "fig12", "heat"} {
		same = append(same, [2]string{`{"experiment":"` + exp + `"}`, `{"experiment":"` + exp + `","scheduler":"affinity"}`})
	}
	for _, pair := range same {
		if parse(t, pair[0]).hash() != parse(t, pair[1]).hash() {
			t.Errorf("%s and %s hash apart", pair[0], pair[1])
		}
	}
	for _, pair := range [][2]string{
		{`{"experiment":"fig13"}`, `{"experiment":"fig13","scheduler":"affinity"}`},
		{`{"experiment":"heat"}`, `{"experiment":"heat","scheduler":"dependencies"}`},
	} {
		if parse(t, pair[0]).hash() == parse(t, pair[1]).hash() {
			t.Errorf("%s and %s hash equal", pair[0], pair[1])
		}
	}
}

// TestHashSchedulerAlias: "default" is an alias for "dependencies" and
// must share its cache entry; a real policy change must not.
func TestHashSchedulerAlias(t *testing.T) {
	def := parse(t, `{"experiment":"heat","scheduler":"default"}`)
	dep := parse(t, `{"experiment":"heat","scheduler":"dependencies"}`)
	bf := parse(t, `{"experiment":"heat","scheduler":"bf"}`)
	if def.hash() != dep.hash() {
		t.Fatalf("scheduler alias split the cache")
	}
	if def.hash() == bf.hash() {
		t.Fatalf("different scheduler hashed equal")
	}
	// heft is canonical on its own: it must alias nothing.
	heft := parse(t, `{"experiment":"heat","scheduler":"heft"}`)
	for _, other := range []Request{def, dep, bf} {
		if heft.hash() == other.hash() {
			t.Fatalf("heft aliased scheduler %q in the cache key", other.Scheduler)
		}
	}
}

// TestHashDistinguishesRuns: every knob that changes what the simulator
// computes must change the key. The list sweeps one knob at a time off a
// base request plus the subtle cases (armed empty fault plan, seed, grid
// point) and checks all hashes are pairwise distinct.
func TestHashDistinguishesRuns(t *testing.T) {
	bodies := []string{
		`{"experiment":"heat"}`,
		`{"experiment":"heat","quick":true}`,
		`{"experiment":"heat","scheduler":"bf"}`,
		`{"experiment":"heat","scheduler":"dependencies"}`,
		`{"experiment":"fig13","scheduler":"affinity"}`,
		`{"experiment":"fig13"}`,
		`{"experiment":"heat","grid_point":"2node ompss"}`,
		`{"experiment":"heat","seed":1}`,
		`{"experiment":"heat","seed":2}`,
		`{"experiment":"heat","fault_plan":{}}`, // armed zero plan != no plan
		`{"experiment":"heat","fault_plan":{"drop_rate":0.1}}`,
		`{"experiment":"heat","fault_plan":{"drop_rate":0.2}}`,
		`{"experiment":"heat","fault_plan":{"latency_multiplier":2}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":1,"at_ns":5}]}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":2,"at_ns":5}]}}`,
		`{"experiment":"heat","fault_plan":{"stalls":[{"node":1,"at_ns":5,"duration_ns":9}]}}`,
		`{"experiment":"fig9"}`,
		`{"experiment":"fig10","trace":true}`,
		`{"experiment":"fig10"}`,
		`{"experiment":"heat","fault_plan":{"heartbeat_interval_ns":2000000}}`,
		`{"experiment":"stress"}`,
		`{"experiment":"stress","quick":true}`,
	}
	seen := make(map[string]string)
	for _, body := range bodies {
		h := parse(t, body).hash()
		if len(h) != 32 {
			t.Fatalf("hash %q is not 32 hex chars", h)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %s and %s", prev, body)
		}
		seen[h] = body
	}
}

// TestHashStableAcrossCalls: hashing is a pure function of the request.
func TestHashStableAcrossCalls(t *testing.T) {
	r := parse(t, `{"experiment":"fig9","quick":true,"seed":42}`)
	h := r.hash()
	for i := 0; i < 100; i++ {
		if r.hash() != h {
			t.Fatalf("hash changed between calls")
		}
	}
}

// TestHashFloatExactness: the canonical float encoding is exact, so two
// drop rates that differ in the last ulp get distinct keys while the same
// decimal literal always maps to one key.
func TestHashFloatExactness(t *testing.T) {
	a := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.1}}`)
	b := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.10}}`)
	c := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.1000000000000001}}`)
	if a.hash() != b.hash() {
		t.Fatalf("same float value hashed differently")
	}
	if a.hash() == c.hash() {
		t.Fatalf("distinct float values hashed equal")
	}
}

// TestValidateRejects: knobs an experiment would silently ignore are
// errors, as are unknown fields — both would alias distinct intents onto
// one cache key (or split one intent across keys).
func TestValidateRejects(t *testing.T) {
	bad := []string{
		`{}`,
		`{"experiment":"nope"}`,
		`{"experiment":"heat","typo_field":1}`,
		`{"experiment":"fig5","scheduler":"bf"}`,
		`{"experiment":"heat","scheduler":"lifo"}`,
		`{"experiment":"fig5","seed":3}`,
		`{"experiment":"fig5","fault_plan":{}}`,
		`{"experiment":"heat","lookahead":2}`, // no ready-ahead window: an unknown field
		`{"experiment":"fig9","trace":true}`,
		`{"experiment":"stress","stress_width":100}`, // the stress grid is fixed: an unknown field
		`{"experiment":"heat","fault_plan":{"heartbeat_interval_ns":-1}}`,
		`{"experiment":"heat","fault_plan":{"drop_rate":1.5}}`,
		`{"experiment":"heat","fault_plan":{"latency_multiplier":-1}}`,
		`{"experiment":"heat","fault_plan":{"stalls":[{"node":0,"at_ns":0,"duration_ns":0}]}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":-1,"at_ns":0}]}}`,
		// Data after the object: the first object alone is a valid request.
		`{"experiment":"fig11","quick":true}{"seed":5}`,
		`{"experiment":"fig11","quick":true} garbage`,
		`{"experiment":"fig11","quick":true}]`,
	}
	for _, body := range bad {
		if _, err := parseRequest(strings.NewReader(body)); err == nil {
			t.Errorf("parseRequest(%s) accepted a bad request", body)
		}
	}
}

// TestBuildIDNonEmpty: the key preamble always has a build identity.
func TestBuildIDNonEmpty(t *testing.T) {
	if BuildID() == "" {
		t.Fatal("empty build id")
	}
}

// TestFaultPlanWireSchema pins the wire form of a request that sets seed
// and every fault_plan field: the canonical key lines (recorded before
// fault_plan decoded straight into faults.Plan), the plan the harness
// receives, and the bodies that stay 400s.
func TestFaultPlanWireSchema(t *testing.T) {
	r := parse(t, `{"experiment":"heat","seed":7,"fault_plan":{
		"drop_rate":0.25,"latency_multiplier":1.5,"bandwidth_multiplier":0.5,
		"stalls":[{"node":1,"at_ns":100,"duration_ns":50}],
		"crashes":[{"node":2,"at_ns":300}],
		"heartbeat_interval_ns":20000}}`)
	const want = `experiment=heat
fault.bandwidth_multiplier=0x1p-01
fault.crash.0=2@300
fault.drop_rate=0x1p-02
fault.heartbeat_interval_ns=20000
fault.latency_multiplier=0x1.8p+00
fault.stall.0=1@100+50
fault_plan=1
seed=7
`
	if got := string(r.canonical()); got != want {
		t.Errorf("canonical lines:\n%s\nwant:\n%s", got, want)
	}
	plan := faults.Plan{
		Seed: 7, DropRate: 0.25, LatencyMultiplier: 1.5, BandwidthMultiplier: 0.5,
		Stalls:            []faults.Stall{{Node: 1, At: 100, Duration: 50}},
		Crashes:           []faults.Crash{{Node: 2, At: 300}},
		HeartbeatInterval: 20 * time.Microsecond,
	}
	if got := r.options().Faults; got == nil || !reflect.DeepEqual(*got, plan) {
		t.Errorf("Options().Faults = %+v, want %+v", got, plan)
	}
	s := startServer(t, Config{})
	for _, body := range []string{
		`{"experiment":"heat","fault_plan":{"seed":7}}`,
		`{"experiment":"heat","fault_plan":{"heartbeat_interval_ns":1.5}}`,
		// The runtime's protocol constants are not plan fields.
		`{"experiment":"heat","fault_plan":{"ack_timeout_ns":4000}}`,
		`{"experiment":"heat","fault_plan":{"max_attempts":3}}`,
		`{"experiment":"heat","fault_plan":{"miss_threshold":4}}`,
	} {
		if rec := do(s, "POST", "/v1/experiments", body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, rec.Code)
		}
	}
}
