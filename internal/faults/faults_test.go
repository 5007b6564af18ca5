package faults

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

func msg(from, to int, size uint64) netsim.Message {
	return netsim.Message{From: from, To: to, Size: size}
}

func TestInjectorSameSeedSameDecisions(t *testing.T) {
	plan := Plan{Seed: 1234, DropRate: 0.3}
	a := NewInjector(plan)
	b := NewInjector(plan)
	for i := 0; i < 1000; i++ {
		now := sim.Time(i) * sim.Time(time.Microsecond)
		m := msg(i%4, (i+1)%4, uint64(i))
		va := a.FilterSend(now, m)
		vb := b.FilterSend(now, m)
		if va != vb {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Drops == 0 {
		t.Fatal("30% drop rate over 1000 messages dropped nothing")
	}
}

func TestZeroDropRateDoesNotAdvanceGenerator(t *testing.T) {
	// A plan without random drops must keep its decision stream independent
	// of traffic volume: filtering any number of messages leaves the
	// generator untouched.
	in := NewInjector(Plan{Seed: 77})
	before := in.rng
	for i := 0; i < 100; i++ {
		if v := in.FilterSend(0, msg(0, 1, 100)); v.Drop {
			t.Fatal("dropped without a drop rate")
		}
	}
	if in.rng != before {
		t.Fatal("generator advanced on a plan with no random drops")
	}
}

func TestCrashBlackholesBothDirections(t *testing.T) {
	at := 10 * time.Millisecond
	in := NewInjector(Plan{Seed: 1, Crashes: []Crash{{Node: 2, At: at}}})
	before := sim.Time(at) - 1
	after := sim.Time(at)
	if in.FilterSend(before, msg(0, 2, 10)).Drop {
		t.Fatal("dropped before the crash time")
	}
	if !in.FilterSend(after, msg(0, 2, 10)).Drop {
		t.Fatal("message to crashed node survived")
	}
	if !in.FilterSend(after, msg(2, 0, 10)).Drop {
		t.Fatal("message from crashed node survived")
	}
	if !in.NodeCrashed(2, after) || in.NodeCrashed(2, before) || in.NodeCrashed(1, after) {
		t.Fatal("NodeCrashed bookkeeping wrong")
	}
	if got := in.Stats().CrashDrops; got != 2 {
		t.Fatalf("CrashDrops = %d, want 2", got)
	}
	// A message in flight when its receiver dies is vetoed at delivery.
	if in.FilterDeliver(after, msg(0, 2, 10)) {
		t.Fatal("delivery to crashed node not vetoed")
	}
	if !in.FilterDeliver(after, msg(0, 1, 10)) {
		t.Fatal("delivery between live nodes vetoed")
	}
}

func TestStallHoldsUntilWindowEnd(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Stalls: []Stall{
		{Node: 1, At: 100 * time.Microsecond, Duration: 50 * time.Microsecond},
		{Node: 1, At: 120 * time.Microsecond, Duration: 100 * time.Microsecond},
	}})
	// Outside every window: untouched.
	if v := in.FilterSend(sim.Time(50*time.Microsecond), msg(0, 1, 10)); v.HoldUntil != 0 {
		t.Fatalf("held outside the window: %+v", v)
	}
	// Inside both windows: held to the later end, either direction.
	at := sim.Time(130 * time.Microsecond)
	wantEnd := sim.Time(220 * time.Microsecond)
	if v := in.FilterSend(at, msg(0, 1, 10)); v.HoldUntil != wantEnd {
		t.Fatalf("HoldUntil = %v, want %v", v.HoldUntil, wantEnd)
	}
	if v := in.FilterSend(at, msg(1, 2, 10)); v.HoldUntil != wantEnd {
		t.Fatalf("sender stall not applied: %+v", v)
	}
	if got := in.Stats().Delays; got != 2 {
		t.Fatalf("Delays = %d, want 2", got)
	}
}

func TestLinkDegradationMultipliers(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, LatencyMultiplier: 4, BandwidthMultiplier: 0.5})
	v := in.FilterSend(0, msg(0, 1, 1000))
	if v.LatencyMult != 4 {
		t.Fatalf("LatencyMult = %v", v.LatencyMult)
	}
	if v.SerMult != 2 {
		t.Fatalf("SerMult = %v, want 2 (half bandwidth)", v.SerMult)
	}
	if v.Drop || v.HoldUntil != 0 {
		t.Fatalf("degradation should not drop or hold: %+v", v)
	}
}

func TestPlanProtocolDefaults(t *testing.T) {
	var p Plan
	if got := p.HeartbeatIntervalOr(); got != 100*time.Microsecond {
		t.Fatalf("HeartbeatIntervalOr = %v, want 100us", got)
	}
	if got := (Plan{HeartbeatInterval: time.Second}).HeartbeatIntervalOr(); got != time.Second {
		t.Fatalf("HeartbeatIntervalOr = %v, want the plan's 1s", got)
	}
}
