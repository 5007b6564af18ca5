package metrics

import (
	"bytes"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.value() != 0 || g.Max() != 0 || h != nil {
		t.Fatal("nil instruments must read zero")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteText = %q, %v", buf.String(), err)
	}
}

func TestInstrumentIdentity(t *testing.T) {
	r := New()
	a := r.Counter("tasks", L("node", "0"), L("kind", "smp"))
	b := r.Counter("tasks", L("kind", "smp"), L("node", "0")) // label order irrelevant
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter reads %d, want 3", b.Value())
	}
	if c := r.Counter("tasks", L("node", "1"), L("kind", "smp")); c == a {
		t.Fatal("different labels must make a distinct counter")
	}
	if got, want := instrumentID("tasks", L("node", "0"), L("kind", "smp")), "tasks{kind=smp,node=0}"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
	if got, want := instrumentID("plain"), "plain"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := New()
	g := r.Gauge("queue", L("node", "0"))
	g.Add(4)
	g.Add(3)
	g.Add(-6)
	if g.value() != 1 || g.Max() != 7 {
		t.Fatalf("gauge value=%d max=%d, want 1/7", g.value(), g.Max())
	}
}

func TestHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("task_run_ns")
	h.Observe(0)
	h.Observe(1)
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	if h.count != 4 {
		t.Fatalf("count = %d, want 4", h.count)
	}
	want := time.Duration(1) + time.Microsecond + time.Millisecond
	if time.Duration(h.sum) != want {
		t.Fatalf("sum = %v, want %v", time.Duration(h.sum), want)
	}
	if mean := time.Duration(h.sum / h.count); mean != want/4 {
		t.Fatalf("mean = %v, want %v", mean, want/4)
	}
	if h.buckets[0] != 1 || h.buckets[1] != 1 {
		t.Fatalf("buckets 0/1 = %d/%d, want 1/1", h.buckets[0], h.buckets[1])
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		// Touch instruments in a scrambled order; snapshot must not care.
		r.Histogram("h", L("dev", "1")).Observe(time.Second)
		r.Counter("b").Add(2)
		r.Gauge("g", L("node", "3")).Set(9)
		r.Counter("a", L("node", "1")).Inc()
		r.Counter("a", L("node", "0")).Inc()
		return r
	}
	var w1, w2 bytes.Buffer
	if err := build().WriteText(&w1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteText(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", w1.String(), w2.String())
	}
	want := "counter a{node=0} value=1\n" +
		"counter a{node=1} value=1\n" +
		"counter b value=2\n" +
		"gauge g{node=3} value=9 max=9\n" +
		"histogram h{dev=1} count=1 sum_ns=1000000000\n"
	if w1.String() != want {
		t.Fatalf("WriteText =\n%s\nwant\n%s", w1.String(), want)
	}
}

func TestSnapshotMidRun(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Inc()
	s1 := r.Snapshot()
	c.Inc()
	s2 := r.Snapshot()
	if s1[0].Value != 1 || s2[0].Value != 2 {
		t.Fatalf("mid-run snapshots = %d then %d, want 1 then 2", s1[0].Value, s2[0].Value)
	}
}
