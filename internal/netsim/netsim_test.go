package netsim

import (
	"testing"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/sim"
)

func testNet() hw.NetSpec {
	return hw.NetSpec{
		Name:               "test-net",
		Bandwidth:          1e9, // 1 GB/s
		Latency:            10 * time.Microsecond,
		PerMessageOverhead: time.Microsecond,
	}
}

func TestPointToPointTiming(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 2)
	var delivered sim.Time
	e.Go("recv", func(p *sim.Proc) {
		msg, _ := f.Iface(1).Inbox().Get(p)
		delivered = p.Now()
		if msg.Size != 1_000_000 {
			t.Errorf("size = %d", msg.Size)
		}
	})
	e.Go("send", func(p *sim.Proc) {
		f.Send(p, Message{From: 0, To: 1, Size: 1_000_000})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// overhead (1us) + 1MB at 1GB/s (1ms) + latency (10us)
	want := sim.Time(time.Microsecond + time.Millisecond + 10*time.Microsecond)
	if delivered != want {
		t.Fatalf("delivered at %v, want %v", delivered, want)
	}
}

func TestLoopbackIsImmediate(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 2)
	var delivered sim.Time
	e.Go("both", func(p *sim.Proc) {
		f.Send(p, Message{From: 0, To: 0, Size: 1 << 30})
		if f.Iface(0).Inbox().Len() != 1 {
			t.Error("loopback not delivered synchronously")
		}
		delivered = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatalf("loopback took %v", delivered)
	}
}

func TestSenderTxSerializes(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 3)
	var times []sim.Time
	for dst := 1; dst <= 2; dst++ {
		dst := dst
		e.Go("recv", func(p *sim.Proc) {
			f.Iface(dst).Inbox().Get(p)
			times = append(times, p.Now())
		})
	}
	for dst := 1; dst <= 2; dst++ {
		dst := dst
		// Both 1MB messages leave node 0: TX serializes them.
		e.Go("send", func(p *sim.Proc) { f.Send(p, Message{From: 0, To: dst, Size: 1_000_000}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	gap := times[1] - times[0]
	if gap < sim.Time(time.Millisecond) {
		t.Fatalf("second delivery only %v after first; TX should serialize 1ms each", gap)
	}
}

func TestReceiverRxSerializesIncast(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 3)
	var times []sim.Time
	e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			f.Iface(2).Inbox().Get(p)
			times = append(times, p.Now())
		}
	})
	for src := 0; src <= 1; src++ {
		src := src
		e.Go("send", func(p *sim.Proc) {
			f.Send(p, Message{From: src, To: 2, Size: 1_000_000})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	gap := times[1] - times[0]
	if gap < sim.Time(time.Millisecond) {
		t.Fatalf("incast gap = %v, want >= 1ms (RX serialization)", gap)
	}
}

func TestDisjointPairsRunConcurrently(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 4)
	var times []sim.Time
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		pair := pair
		e.Go("recv", func(p *sim.Proc) {
			f.Iface(pair[1]).Inbox().Get(p)
			times = append(times, p.Now())
		})
		e.Go("send", func(p *sim.Proc) {
			f.Send(p, Message{From: pair[0], To: pair[1], Size: 1_000_000})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != times[1] {
		t.Fatalf("disjoint transfers should complete simultaneously: %v", times)
	}
}

func TestStatsCounting(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 2)
	e.Go("recv", func(p *sim.Proc) { f.Iface(1).Inbox().Get(p) })
	e.Go("send", func(p *sim.Proc) {
		f.Send(p, Message{From: 0, To: 1, Size: 500})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s0, s1 := f.Iface(0).Stats(), f.Iface(1).Stats()
	if s0.MsgsSent != 1 || s0.BytesSent != 500 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MsgsReceived != 1 || s1.BytesReceived != 500 {
		t.Fatalf("receiver stats %+v", s1)
	}
}

func TestBadEndpointsPanic(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, testNet(), 2)
	e.Go("send", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f.Send(p, Message{From: 0, To: 7, Size: 1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
