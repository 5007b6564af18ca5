// Package faults injects deterministic failures into the simulated
// cluster: message drops, link degradation, transient node stalls and
// permanent node crashes, all scheduled on the virtual clock from a seeded
// generator. The same Plan replays bit-identically, which turns fault
// tolerance — normally the least reproducible part of a distributed
// runtime — into something as testable as a scheduler policy.
//
// The paper's cluster layer (Section V) assumes a perfect interconnect and
// immortal nodes; this package is the counterfactual machine for measuring
// what that assumption costs to drop.
package faults

import (
	"time"

	"github.com/bsc-repro/ompss/internal/netsim"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Crash removes a node from the cluster permanently at virtual time At:
// every message to or from it is blackholed from then on. The node's local
// simulation keeps running (a crash is modeled as a total network
// partition), but nothing it computes can ever reach the cluster again.
type Crash struct {
	Node int           `json:"node"`
	At   time.Duration `json:"at_ns"`
}

// Stall freezes a node's link for a window of virtual time: messages sent
// to or from it during [At, At+Duration) are held and delivered at the end
// of the window. A stall longer than the failure detector's patience is
// indistinguishable from a crash and will get the node excluded.
type Stall struct {
	Node     int           `json:"node"`
	At       time.Duration `json:"at_ns"`
	Duration time.Duration `json:"duration_ns"`
}

// Plan is a complete deterministic fault scenario. The zero value injects
// nothing; a Config carrying a Quiet plan still arms acks and retries,
// which move virtual time and are how their overhead is measured, but no
// failure detector and no recovery log, since nothing can fail. The JSON
// tags are the fault_plan wire form of the serving layer's requests:
// durations are integer virtual nanoseconds, and the seed is not part of it
// (the request's top-level seed sets it).
type Plan struct {
	// Seed drives the pseudo-random drop process. Two runs with the same
	// Plan are bit-identical.
	Seed uint64 `json:"-"`

	// DropRate is the probability in [0,1] that any given non-loopback
	// message is lost on the wire (after paying its full send cost).
	DropRate float64 `json:"drop_rate,omitempty"`

	// LatencyMultiplier scales wire latency for every message; 0 or 1
	// means unchanged.
	LatencyMultiplier float64 `json:"latency_multiplier,omitempty"`

	// BandwidthMultiplier scales link bandwidth for every message; 0 or 1
	// means unchanged, 0.5 doubles serialization time.
	BandwidthMultiplier float64 `json:"bandwidth_multiplier,omitempty"`

	Stalls  []Stall `json:"stalls,omitempty"`
	Crashes []Crash `json:"crashes,omitempty"`

	// HeartbeatInterval is the master -> slave probe period; zero selects
	// the default (see HeartbeatIntervalOr). It is the one protocol
	// setting a plan carries: the ack timeout, the attempt bound and the
	// failure detector's miss threshold are the runtime's constants.
	HeartbeatInterval time.Duration `json:"heartbeat_interval_ns,omitempty"`
}

// HeartbeatIntervalOr returns the probe period, default 100us — two
// orders of magnitude above the 2us wire latency, so heartbeat traffic is
// negligible against bulk transfers.
func (p Plan) HeartbeatIntervalOr() time.Duration {
	if p.HeartbeatInterval > 0 {
		return p.HeartbeatInterval
	}
	return 100 * time.Microsecond
}

// Quiet reports whether the plan injects nothing: no drops, no latency or
// bandwidth change, no stalls and no crashes. The seed and the heartbeat
// period do not count: under a quiet plan the injector draws no random
// number, and a probe has nothing to detect.
func (p Plan) Quiet() bool {
	unchanged := func(m float64) bool { return m == 0 || m == 1 }
	return p.DropRate == 0 && unchanged(p.LatencyMultiplier) && unchanged(p.BandwidthMultiplier) &&
		len(p.Stalls) == 0 && len(p.Crashes) == 0
}

// Stats counts what an Injector actually did to the traffic.
type Stats struct {
	Drops      int // messages lost to the random drop process
	CrashDrops int // messages blackholed because an endpoint had crashed
	Delays     int // messages held by a stall window
}

// Injector implements netsim.Hook for one Plan. It must only be driven
// from the simulation (single-threaded); its PRNG advances once per
// filtered message, so the decision sequence is a pure function of the
// seed and the message order — which the deterministic engine fixes.
type Injector struct {
	plan  Plan
	rng   uint64
	stats Stats
}

// NewInjector returns an injector for plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, rng: plan.Seed}
}

// Stats returns what has been injected so far.
func (in *Injector) Stats() Stats { return in.stats }

// next advances the splitmix64 generator.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws a uniform [0,1) variate and compares it to p. It does not
// advance the generator when p <= 0, so a plan without random drops keeps
// the same decision stream regardless of traffic volume.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// NodeCrashed reports whether node has crashed as of virtual time now.
func (in *Injector) NodeCrashed(node int, now sim.Time) bool {
	for _, c := range in.plan.Crashes {
		if c.Node == node && now >= sim.Time(c.At) {
			return true
		}
	}
	return false
}

// stallEnd returns the latest end of any stall window covering node at now.
func (in *Injector) stallEnd(node int, now sim.Time) (sim.Time, bool) {
	var end sim.Time
	found := false
	for _, s := range in.plan.Stalls {
		if s.Node != node {
			continue
		}
		if now >= sim.Time(s.At) && now < sim.Time(s.At+s.Duration) {
			if e := sim.Time(s.At + s.Duration); !found || e > end {
				end, found = e, true
			}
		}
	}
	return end, found
}

// FilterSend decides the fate of one message as it enters the wire.
func (in *Injector) FilterSend(now sim.Time, m netsim.Message) netsim.Verdict {
	v := netsim.Verdict{
		LatencyMult: in.plan.LatencyMultiplier,
	}
	if bw := in.plan.BandwidthMultiplier; bw > 0 && bw != 1 {
		v.SerMult = 1 / bw
	}
	if in.NodeCrashed(m.From, now) || in.NodeCrashed(m.To, now) {
		v.Drop = true
		in.stats.CrashDrops++
		return v
	}
	if in.chance(in.plan.DropRate) {
		v.Drop = true
		in.stats.Drops++
		return v
	}
	var hold sim.Time
	for _, node := range [2]int{m.From, m.To} {
		if end, ok := in.stallEnd(node, now); ok && end > hold {
			hold = end
		}
	}
	if hold > 0 {
		v.HoldUntil = hold
		in.stats.Delays++
	}
	return v
}

// FilterDeliver vetoes the handoff of a message whose receiver crashed
// while it was in flight.
func (in *Injector) FilterDeliver(now sim.Time, m netsim.Message) bool {
	if in.NodeCrashed(m.To, now) {
		in.stats.CrashDrops++
		return false
	}
	return true
}
