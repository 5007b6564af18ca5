// Package metrics is the runtime's deterministic instrumentation
// registry: typed counters, gauges and virtual-time histograms keyed by
// name + labels (device, node, kind...), playing the role the ad-hoc
// Stats counters used to. Instruments are plain values updated from the
// single-threaded simulation, so reads and writes need no locks, and a
// snapshot taken mid-run is exact. Everything is nil-safe: a nil
// *Registry hands out nil instruments whose methods are no-ops, so
// instrumentation sites need no guards — the same contract as
// trace.Recorder.
//
// Determinism contract: instrument identity is a pure function of the
// (name, labels) pair, Snapshot orders samples by canonical id, and no
// wall-clock or map-iteration order leaks in — two replays of the same
// seeded run produce byte-identical WriteText output.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"

	"github.com/bsc-repro/ompss/internal/detmap"
	"github.com/bsc-repro/ompss/internal/sim"
)

// Label is one key=value dimension of an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label at an instrumentation site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// instrumentID renders the canonical instrument id: name{k1=v1,k2=v2}
// with labels sorted by key, or just name when there are none. The id is
// the registry key, so two sites naming the same (name, labels) pair
// share one instrument regardless of label argument order.
func instrumentID(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be >= 0 to keep the counter monotone; this is not
// enforced so derived deltas can be replayed).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, outstanding presends).
// It tracks the current value and the high-water mark. A nil *Gauge is
// a no-op.
type Gauge struct {
	v, max int64
}

// Set replaces the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the current value by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// value returns the current level (0 on nil).
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// histBuckets is the number of exponential (power-of-two nanosecond)
// histogram buckets: bucket i counts observations d with bits.Len(d)
// == i, i.e. upper bound 2^i - 1 ns. 64 covers the full int64 range.
const histBuckets = 65

// Histogram accumulates virtual-time durations into exponential
// power-of-two buckets. The count, the sum and the bucket vector are exact
// integers, so snapshots are bit-stable. A nil *Histogram is a no-op.
type Histogram struct {
	count, sum int64
	buckets    [histBuckets]int64
}

// Observe records one duration. Non-positive durations land in bucket 0.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	h.count++
	h.sum += ns
	i := 0
	if ns > 0 {
		i = bits.Len64(uint64(ns))
	}
	h.buckets[i]++
}

// Kind tags what a Sample measures.
type Kind int

const (
	// kindCounter samples carry the counter value.
	kindCounter Kind = iota
	// kindGauge samples carry the current level and high-water mark.
	kindGauge
	// kindHistogram samples carry the observation count and total sum.
	kindHistogram
)

func (k Kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Sample is one instrument's state at snapshot time.
type Sample struct {
	ID   string
	Kind Kind
	// Value is the counter value, gauge level, or histogram count.
	Value int64
	// Max is the gauge high-water mark (gauges only).
	Max int64
	// Sum is the histogram's total virtual time in ns (histograms only).
	Sum int64
}

// Registry hands out instruments by (name, labels) identity. The zero
// value is not usable; call New. A nil *Registry returns nil
// instruments, which are valid no-ops.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter named by (name, labels), creating it on
// first use. Returns nil (a valid no-op) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := instrumentID(name, labels...)
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns the gauge named by (name, labels), creating it on first
// use. Returns nil (a valid no-op) on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := instrumentID(name, labels...)
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns the histogram named by (name, labels), creating it
// on first use. Returns nil (a valid no-op) on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := instrumentID(name, labels...)
	h, ok := r.hists[id]
	if !ok {
		h = &Histogram{}
		r.hists[id] = h
	}
	return h
}

// Snapshot returns every instrument's current state, sorted by kind
// then id — a pure function of the recorded updates, safe to take
// mid-run. Nil registries snapshot empty.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, id := range detmap.Keys(r.counters) {
		out = append(out, Sample{ID: id, Kind: kindCounter, Value: r.counters[id].Value()})
	}
	for _, id := range detmap.Keys(r.gauges) {
		g := r.gauges[id]
		out = append(out, Sample{ID: id, Kind: kindGauge, Value: g.value(), Max: g.Max()})
	}
	for _, id := range detmap.Keys(r.hists) {
		h := r.hists[id]
		out = append(out, Sample{ID: id, Kind: kindHistogram, Value: h.count, Sum: h.sum})
	}
	return out
}

// WriteText renders a snapshot as stable "kind id value" lines, one per
// instrument, for logs and golden tests.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		var err error
		switch s.Kind {
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s value=%d max=%d\n", s.Kind, s.ID, s.Value, s.Max)
		case kindHistogram:
			_, err = fmt.Fprintf(w, "%s %s count=%d sum_ns=%d\n", s.Kind, s.ID, s.Value, s.Sum)
		default:
			_, err = fmt.Fprintf(w, "%s %s value=%d\n", s.Kind, s.ID, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
